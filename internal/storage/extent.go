// Class extents: per shard and class, the OIDs that may have a version
// of the class, kept in ascending order so a scan is one sorted run per
// shard and a whole-class scan a merge of those runs — nothing is
// collected, copied or sorted at read time.
//
// An extent is a directory of sorted chunks behind an atomic pointer.
// Readers load the directory once and walk it without a lock. Writers
// (all under sh.mu) append in place at the tail — the slot is written
// first, then the chunk's length is published atomically — and replace
// only the chunk an out-of-order insert or a removal touches, in a new
// directory; chunks reachable from an older directory are never written
// again, so a reader mid-walk keeps a valid, sorted, duplicate-free
// view.
//
// Membership is a superset that resolve filters (tombstones, versions
// invisible at the snapshot, an OID whose class changed). It is also
// complete for every reader: a version visible at snapshot S had its
// slot filed before its commit published, hence before S was acquired
// and before the reader loaded the directory; a transaction's own Put
// precedes its scan; and a slot is removed only with its entry — a
// chain dead below the GC watermark, or a write that aborted.
package storage

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/lock"
	"repro/internal/obs"
)

// A chunk grows by doubling from extentChunkMin slots up to
// extentChunkMax; past that the extent grows by whole chunks.
const (
	extentChunkMin = 8
	extentChunkMax = 512
)

// extSlot is one extent member. Holding the entry saves the objects-map
// lookup per scanned row.
type extSlot struct {
	oid datum.OID
	e   *mvEntry
}

// extChunk is one ascending run of slots. slots spans the chunk's whole
// capacity; only slots[:n] are published.
type extChunk struct {
	n     atomic.Int32
	slots []extSlot
}

// newExtChunk returns a chunk holding src with room for capacity slots.
func newExtChunk(src []extSlot, capacity int) *extChunk {
	c := &extChunk{slots: make([]extSlot, max(capacity, len(src)))}
	c.n.Store(int32(copy(c.slots, src)))
	return c
}

func (c *extChunk) live() []extSlot { return c.slots[:c.n.Load()] }

// extent is one shard's slice of a class extent: the directory of its
// non-empty chunks, ascending.
type extent struct {
	dir atomic.Pointer[[]*extChunk]
}

func (x *extent) chunks() []*extChunk {
	if d := x.dir.Load(); d != nil {
		return *d
	}
	return nil
}

// replace publishes a directory with dir[ci] swapped for repl.
func (x *extent) replace(dir []*extChunk, ci int, repl ...*extChunk) {
	next := slices.Concat(dir[:ci], repl, dir[min(ci+1, len(dir)):])
	x.dir.Store(&next)
}

// find locates oid in a non-empty directory: the chunk that holds (or
// would hold) it, the slot index within, and whether it is present.
func find(dir []*extChunk, oid datum.OID) (ci, i int, ok bool) {
	ci, ok = slices.BinarySearchFunc(dir, oid, func(c *extChunk, o datum.OID) int {
		return cmp.Compare(c.slots[0].oid, o)
	})
	if ok {
		return ci, 0, true
	}
	ci = max(ci-1, 0) // the last chunk starting below oid
	i, ok = slices.BinarySearchFunc(dir[ci].live(), oid, func(s extSlot, o datum.OID) int {
		return cmp.Compare(s.oid, o)
	})
	return ci, i, ok
}

// add files (oid, e) and reports whether the slot count grew. An OID
// already present keeps its slot, re-pointed when the object was
// removed and created again since. Caller holds sh.mu.
func (x *extent) add(oid datum.OID, e *mvEntry) bool {
	dir := x.chunks()
	if len(dir) == 0 {
		x.replace(nil, 0, newExtChunk([]extSlot{{oid, e}}, extentChunkMin))
		return true
	}
	ci, i, ok := find(dir, oid)
	c := dir[ci]
	live := c.live()
	tail := ci == len(dir)-1 && i == len(live)
	switch {
	case ok && live[i].e == e:
		return false
	case ok:
		nc := newExtChunk(live, len(c.slots))
		nc.slots[i].e = e
		x.replace(dir, ci, nc)
		return false
	case tail && len(live) < len(c.slots):
		c.slots[i] = extSlot{oid, e}
		c.n.Store(int32(i + 1))
		return true
	case tail && len(live) == extentChunkMax:
		x.replace(dir, ci, c, newExtChunk([]extSlot{{oid, e}}, extentChunkMax))
		return true
	}
	merged := slices.Insert(slices.Clone(live), i, extSlot{oid, e})
	if len(merged) <= extentChunkMax {
		x.replace(dir, ci, newExtChunk(merged, min(2*len(live), extentChunkMax)))
	} else {
		h := len(merged) / 2
		x.replace(dir, ci, newExtChunk(merged[:h], 0), newExtChunk(merged[h:], extentChunkMax))
	}
	return true
}

// remove drops oid's slot and reports whether it was present. Caller
// holds sh.mu.
func (x *extent) remove(oid datum.OID) bool {
	dir := x.chunks()
	if len(dir) == 0 {
		return false
	}
	ci, i, ok := find(dir, oid)
	if !ok {
		return false
	}
	if live := dir[ci].live(); len(live) > 1 {
		x.replace(dir, ci, newExtChunk(slices.Delete(slices.Clone(live), i, i+1), 0))
	} else {
		x.replace(dir, ci)
	}
	return true
}

// extentAdd records (oid, e) as a possible member of class's extent.
// Caller holds sh.mu exclusively.
func (s *Store) extentAdd(sh *shard, class string, oid datum.OID, e *mvEntry) {
	if loadOrNew[extent](&sh.extents, class).add(oid, e) {
		loadOrNew[atomic.Int64](&s.extentN, class).Add(1)
	}
}

// extentDel removes oid from class's extent, keeping the cardinality
// counter in step. Caller holds sh.mu exclusively.
func (s *Store) extentDel(sh *shard, class string, oid datum.OID) {
	if v, ok := sh.extents.Load(class); ok && v.(*extent).remove(oid) {
		loadOrNew[atomic.Int64](&s.extentN, class).Add(-1)
	}
}

// ExtentEstimate returns the approximate cardinality of class's
// extent: the number of extent slots across all shards, maintained
// O(1) at insert/remove, falling back to the cardinality the newest
// loaded snapshot header recorded at checkpoint time. It over-counts
// live rows by uncommitted inserts and not-yet-GC'd tombstone-headed
// chains, which is fine for its purpose — planner cost estimation.
func (s *Store) ExtentEstimate(class string) int {
	if v, ok := s.extentN.Load(class); ok {
		if n := v.(*atomic.Int64).Load(); n > 0 {
			return int(n)
		}
	}
	if n, ok := s.statsSeed[class]; ok {
		return int(n)
	}
	return 0
}

// classCards captures the live per-class extent cardinalities — the
// planner statistics a checkpoint persists in its header.
func (s *Store) classCards() map[string]uint64 {
	cards := map[string]uint64{}
	s.extentN.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n > 0 {
			cards[k.(string)] = uint64(n)
		}
		return true
	})
	return cards
}

// extCursor walks one shard's extent of a class in ascending OID order
// without a lock: slots is the unread rest of the current chunk, dir
// the chunks after it.
type extCursor struct {
	slots []extSlot
	dir   []*extChunk
}

func (sh *shard) cursor(class string) extCursor {
	var c extCursor
	if v, ok := sh.extents.Load(class); ok {
		c.dir = v.(*extent).chunks()
		c.fill()
	}
	return c
}

func (c *extCursor) fill() {
	for len(c.slots) == 0 && len(c.dir) > 0 {
		c.slots, c.dir = c.dir[0].live(), c.dir[1:]
	}
}

func (c *extCursor) done() bool { return len(c.slots) == 0 }

func (c *extCursor) pop() extSlot {
	sl := c.slots[0]
	c.slots = c.slots[1:]
	c.fill()
	return sl
}

// visit resolves one extent slot for the scan and hands a live record
// of the class to fn; false means fn declined.
func (s *Store) visit(e *mvEntry, tx lock.TxnID, class string, snap uint64, fn func(Object) bool) bool {
	rec, ok := s.resolve(e, tx, snap)
	return !ok || rec.Class != class || fn(rec)
}

// ScanClass calls fn for every live (visible, non-deleted) object of
// the class, in ascending OID order, against a snapshot pinned for
// the whole scan: the result set is a consistent point-in-time view
// even while committers land concurrently. Scanning stops — nothing
// further is resolved — once fn returns false. The scan holds no shard
// lock at any point, so committers are never blocked and fn may
// re-enter the store. Objects are shared with the store: read-only.
func (s *Store) ScanClass(tx lock.TxnID, class string, fn func(Object) bool) {
	h := s.AcquireSnapshot()
	defer h.Release()
	s.ScanClassAt(tx, class, h.lsn, fn)
}

// ScanClassAt is ScanClass against an explicit snapshot LSN: a merge of
// the shards' ascending runs. The caller is responsible for keeping a
// Snapshot registered at or below snap while it runs (otherwise the
// version GC may unlink versions the scan needs).
func (s *Store) ScanClassAt(tx lock.TxnID, class string, snap uint64, fn func(Object) bool) {
	s.nScans.Add(1)
	tm := s.obsm.Timer(obs.HSnapshotRead)
	defer tm.Done()
	runs := make([]extCursor, 0, len(s.shards))
	for _, sh := range s.shards {
		if c := sh.cursor(class); !c.done() {
			runs = append(runs, c)
		}
	}
	resolved := uint64(0)
	for len(runs) > 0 {
		// The next row is the smallest head. Shards are few (16 in the
		// engine), so a linear pass costs what maintaining a heap would.
		m := 0
		for i := 1; i < len(runs); i++ {
			if runs[i].slots[0].oid < runs[m].slots[0].oid {
				m = i
			}
		}
		sl := runs[m].pop()
		if runs[m].done() {
			runs = slices.Delete(runs, m, m+1)
		}
		resolved++
		if !s.visit(sl.e, tx, class, snap, fn) {
			break
		}
	}
	s.nRows.Add(resolved)
}

// ScanClassShardAt visits shard si's slice of class's extent, in
// ascending OID order within the shard, at snapshot snap. It is the
// per-shard MVCC extent iterator behind the parallel query executor:
// one worker per shard, every worker at the same pinned LSN, no locks
// taken at any point, so N workers and concurrent committers never
// contend. The caller owns the snapshot-pin obligation of ScanClassAt
// (keep a Snapshot registered at or below snap across *all* workers);
// out-of-range si visits nothing. Scanning stops if fn returns false.
func (s *Store) ScanClassShardAt(tx lock.TxnID, si int, class string, snap uint64, fn func(Object) bool) {
	if si < 0 || si >= len(s.shards) {
		return
	}
	resolved := uint64(0)
	for c := s.shards[si].cursor(class); !c.done(); {
		resolved++
		if !s.visit(c.pop().e, tx, class, snap, fn) {
			break
		}
	}
	s.nRows.Add(resolved)
}
