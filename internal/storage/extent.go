// Class extents: per class, the OIDs that may have a version of the
// class, kept in ascending order so a scan is one sorted run — nothing
// is collected, copied or sorted at read time.
//
// An extent is a directory of sorted chunks behind an atomic pointer.
// Readers load the directory once and walk it without a lock. Writers
// (all under the store's mu) append in place at the tail — the slot is
// written first, then the chunk's length is published atomically — and
// replace only the chunk an out-of-order insert or a removal touches,
// in a new directory; chunks reachable from an older directory are
// never written again, so a reader mid-walk keeps a valid, sorted,
// duplicate-free view.
//
// Membership is a superset that resolve filters (tombstones, versions
// invisible at the snapshot, an OID whose class changed). It is also
// complete for every reader: a version visible at snapshot S had its
// slot filed before its commit published, hence before S was acquired
// and before the reader loaded the directory; a transaction's own Put
// precedes its scan; and a slot is removed only with its entry — a
// chain dead below the GC watermark, or a write that aborted.
//
// Completeness makes the extent cut anywhere: the parallel executor
// splits a class into OID ranges (ExtentCuts) and scans each with its
// own directory load (ScanClassRangeAt). However the directory moved in
// between, the ranges partition the OID space, so their union at one
// pinned snapshot is exactly the whole-class scan at that snapshot.
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

// extent is one class's extent: the directory of its non-empty
// chunks, ascending, and the slot count across them.
type extent struct {
	dir atomic.Pointer[[]*extChunk]
	n   atomic.Int64
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
// removed and created again since. Caller holds the store's mu.
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
// holds the store's mu.
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
// Caller holds s.mu.
func (s *Store) extentAdd(class string, oid datum.OID, e *mvEntry) {
	if x := loadOrNew[extent](&s.extents, class); x.add(oid, e) {
		x.n.Add(1)
	}
}

// extentDel removes oid from class's extent, keeping the slot count in
// step. Caller holds s.mu.
func (s *Store) extentDel(class string, oid datum.OID) {
	if x := s.extent(class); x != nil && x.remove(oid) {
		x.n.Add(-1)
	}
}

// extent returns class's extent, or nil. Lock-free.
func (s *Store) extent(class string) *extent {
	if v, ok := s.extents.Load(class); ok {
		return v.(*extent)
	}
	return nil
}

// ExtentEstimate returns the approximate cardinality of class's
// extent: its slot count, maintained O(1) at insert/remove, falling
// back to the cardinality the newest loaded snapshot header recorded
// at checkpoint time. It over-counts
// live rows by uncommitted inserts and not-yet-GC'd tombstone-headed
// chains, which is fine for its purpose — planner cost estimation.
func (s *Store) ExtentEstimate(class string) int {
	if x := s.extent(class); x != nil {
		if n := x.n.Load(); n > 0 {
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
	s.extents.Range(func(k, v any) bool {
		if n := v.(*extent).n.Load(); n > 0 {
			cards[k.(string)] = uint64(n)
		}
		return true
	})
	return cards
}

// extCursor walks a class extent in ascending OID order without a
// lock: slots is the unread rest of the current chunk, dir the chunks
// after it.
type extCursor struct {
	slots []extSlot
	dir   []*extChunk
}

// cursor opens class's extent at its first OID >= from, on one load of
// the directory.
func (s *Store) cursor(class string, from datum.OID) extCursor {
	var c extCursor
	if x := s.extent(class); x != nil {
		if c.dir = x.chunks(); len(c.dir) > 0 {
			ci, i, _ := find(c.dir, from)
			c.slots, c.dir = c.dir[ci].live()[i:], c.dir[ci+1:]
			c.fill()
		}
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

// ScanClass calls fn for every live (visible, non-deleted) object of
// the class, in ascending OID order, against a snapshot pinned for
// the whole scan: the result set is a consistent point-in-time view
// even while committers land concurrently. Scanning stops — nothing
// further is resolved — once fn returns false. The scan holds no lock
// at any point, so committers are never blocked and fn may re-enter
// the store. Objects are shared with the store: read-only.
func (s *Store) ScanClass(tx lock.TxnID, class string, fn func(Object) bool) {
	h := s.AcquireSnapshot()
	defer h.Release()
	s.ScanClassAt(tx, class, h.lsn, fn)
}

// ScanClassAt is ScanClass against an explicit snapshot LSN. The
// caller is responsible for keeping a Snapshot registered at or below
// snap while it runs (otherwise the version GC may unlink versions the
// scan needs).
func (s *Store) ScanClassAt(tx lock.TxnID, class string, snap uint64, fn func(Object) bool) {
	s.nScans.Add(1)
	tm := s.obsm.Timer(obs.HSnapshotRead)
	defer tm.Done()
	s.ScanClassRangeAt(tx, class, 0, 0, snap, fn)
}

// ScanClassRangeAt visits the class's live objects with lo <= OID < hi
// (hi 0: no upper bound) in ascending OID order at snapshot snap. It is
// the range iterator behind the parallel query executor: every worker
// scans its ranges at the same pinned LSN, with no lock taken at any
// point, so workers and concurrent committers never contend. The
// caller owns ScanClassAt's snapshot-pin obligation across all of its
// ranges. Scanning stops once fn returns false.
func (s *Store) ScanClassRangeAt(tx lock.TxnID, class string, lo, hi datum.OID, snap uint64, fn func(Object) bool) {
	resolved := uint64(0)
	for c := s.cursor(class, lo); !c.done(); {
		sl := c.pop()
		if hi != 0 && sl.oid >= hi {
			break
		}
		resolved++
		if rec, ok := s.resolve(sl.e, tx, snap); ok && rec.Class == class && !fn(rec) {
			break
		}
	}
	s.nRows.Add(resolved)
}

// ExtentCuts cuts class's extent into at most n ranges of about equal
// slot count, from one load of its chunk directory, and returns the
// cut points, ascending: range k holds the OIDs in [cuts[k-1], cuts[k]),
// the first range starting at 0 and the last unbounded. Whatever
// happens to the extent afterwards, the ranges partition the OID
// space, so scanning each with ScanClassRangeAt at one snapshot visits
// exactly what ScanClassAt would.
func (s *Store) ExtentCuts(class string, n int) []datum.OID {
	x := s.extent(class)
	if x == nil {
		return nil
	}
	dir := x.chunks()
	runs := make([][]extSlot, len(dir))
	total := 0
	for i, c := range dir {
		runs[i] = c.live()
		total += len(runs[i])
	}
	n = min(n, total)
	if n <= 1 {
		return nil
	}
	cuts := make([]datum.OID, 0, n-1)
	k, seen := 1, 0
	for _, run := range runs {
		// Cut k falls on slot k*total/n, strictly increasing in k since
		// n <= total.
		for ; k < n && k*total/n < seen+len(run); k++ {
			cuts = append(cuts, run[k*total/n-seen].oid)
		}
		seen += len(run)
	}
	return cuts
}
