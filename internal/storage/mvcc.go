// MVCC read path: commit-LSN version chains, the snapshot registry,
// and the version garbage collector.
//
// Committed object states live in per-object version chains: a chain
// is an atomic head pointer to the newest committed version, each
// version carrying the logical commit LSN that installed it and an
// atomic link to the previous version. Readers never take the writer
// mutex for committed data — they pick a snapshot LSN (the newest
// *published* commit) and walk the chain to the newest version at or
// below it.
//
// Install-then-publish ordering makes multi-record commits atomic to
// lock-free readers: CommitTop assigns its commit LSN under cmu,
// installs all of its versions, and only then marks the LSN
// complete; the published counter advances only to the contiguous
// prefix of completed commit LSNs, so a snapshot can never observe
// half of a commit. CommitTop waits for its own LSN to publish before
// returning, preserving read-your-commits for callers (the wait is
// short: earlier commits only need to finish their installs, their
// WAL records having been flushed by the same group commit).
//
// Snapshots pinned for the duration of a scan or a condition
// evaluation register in a striped registry; the version GC computes
// the oldest registered snapshot LSN as its watermark and unlinks
// chain versions below the newest version each live snapshot can
// still reach. Secondary-index entries are removed here too — installs
// only ever add entries, so an old snapshot's index probe still finds
// rows visible to it (probes may return false positives; callers
// re-verify against the resolved record).
package storage

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/lock"
)

// mvVersion is one committed version of an object.
type mvVersion struct {
	// lsn is the logical commit LSN that installed this version;
	// a reader at snapshot S sees the newest version with lsn <= S.
	lsn uint64
	rec Object
	// prev links to the next-older committed version. Written once at
	// install and cleared (to nil) by the version GC; atomic so
	// lock-free readers can walk mid-unlink.
	prev atomic.Pointer[mvVersion]
	// depth approximates the chain length at this head (recounted by
	// GC); feeds the version_chain_len histogram and GC candidacy.
	depth atomic.Uint32
}

// mvEntry is one object's slot in the heap: the committed version
// chain plus the uncommitted versions of in-flight transactions.
// Entry creation and removal happen under the store's mu; the
// committed head is read lock-free; the uncommitted tier is guarded
// by umu (writers additionally hold mu, so the GC can rely on mu alone
// to freeze an entry).
type mvEntry struct {
	head atomic.Pointer[mvVersion]
	umu  sync.Mutex
	unc  []version
	// nUnc mirrors len(unc) so readers skip the umu lock entirely when
	// no transaction has the object dirty (the common case).
	nUnc atomic.Int32
}

// setUnc replaces the uncommitted tier, keeping the nUnc mirror in step.
// Caller holds e.umu.
func (e *mvEntry) setUnc(unc []version) {
	e.unc = unc
	e.nUnc.Store(int32(len(unc)))
}

// dropOwner removes owner's uncommitted version (a transaction holds at
// most one per object) and returns it. Caller holds e.umu.
func (e *mvEntry) dropOwner(owner lock.TxnID) (version, bool) {
	for i, v := range e.unc {
		if v.owner == owner {
			e.setUnc(slices.Delete(e.unc, i, i+1))
			return v, true
		}
	}
	return version{}, false
}

// visibleAt returns the newest committed version with lsn <= snap,
// or nil. Lock-free.
func (e *mvEntry) visibleAt(snap uint64) *mvVersion {
	for v := e.head.Load(); v != nil; v = v.prev.Load() {
		if v.lsn <= snap {
			return v
		}
	}
	return nil
}

// newestClass returns the class of e's newest version, uncommitted
// ones first ("" for an empty entry).
func (e *mvEntry) newestClass() string {
	if e.nUnc.Load() > 0 {
		e.umu.Lock()
		defer e.umu.Unlock()
		if n := len(e.unc); n > 0 {
			return e.unc[n-1].rec.Class
		}
	}
	if hv := e.head.Load(); hv != nil {
		return hv.rec.Class
	}
	return ""
}

// resolve returns the record of e visible to tx at snapshot snap:
// tx's own (or an ancestor's) uncommitted version first, else the
// committed version at snap. The returned bool is false for a
// tombstone or no visible version; the record is still returned for
// tombstones so callers can see the class. The object is the version
// as stored — no copy; versions are never written after Put.
func (s *Store) resolve(e *mvEntry, tx lock.TxnID, snap uint64) (Object, bool) {
	if tx != committedOwner && e.nUnc.Load() > 0 {
		e.umu.Lock()
		for i := len(e.unc) - 1; i >= 0; i-- {
			v := e.unc[i]
			if v.owner == tx || s.topo.IsAncestorOrSelf(v.owner, tx) {
				e.umu.Unlock()
				return v.rec, !v.rec.Deleted
			}
		}
		e.umu.Unlock()
	}
	if v := e.visibleAt(snap); v != nil {
		return v.rec, !v.rec.Deleted
	}
	return Object{}, false
}

// --- commit-LSN publish protocol (fields guarded by cmu) ---

// beginCommitLocked assigns the next commit LSN and marks it pending.
// Caller holds cmu — for logged commits this is the same critical
// section as the WAL append, so commit-LSN order matches log order.
func (s *Store) beginCommitLocked() uint64 {
	clsn := s.nextCommit
	s.nextCommit++
	s.pending[clsn] = struct{}{}
	return clsn
}

// endCommit marks clsn complete (installed or abandoned) and advances
// the published frontier.
func (s *Store) endCommit(clsn uint64) {
	s.cmu.Lock()
	s.endCommitLocked(clsn)
	s.cmu.Unlock()
}

func (s *Store) endCommitLocked(clsn uint64) {
	delete(s.pending, clsn)
	// published = the contiguous prefix of completed commits: one
	// below the smallest pending LSN, or everything assigned if none
	// is pending. Monotone: the minimum pending LSN only grows.
	pub := s.nextCommit - 1
	for lsn := range s.pending {
		if lsn-1 < pub {
			pub = lsn - 1
		}
	}
	if pub > s.published.Load() {
		s.published.Store(pub)
		s.pubCond.Broadcast()
	}
}

// waitPublished blocks until the published frontier reaches clsn.
func (s *Store) waitPublished(clsn uint64) {
	if s.published.Load() >= clsn {
		return
	}
	s.cmu.Lock()
	for s.published.Load() < clsn {
		s.pubCond.Wait()
	}
	s.cmu.Unlock()
}

// PublishedLSN returns the newest commit LSN visible to fresh
// snapshots.
func (s *Store) PublishedLSN() uint64 { return s.published.Load() }

// --- snapshot registry ---

// snapStripes is the registry partition count; acquisition round-
// robins across stripes so concurrent scans do not share a mutex.
const snapStripes = 16

type snapStripe struct {
	mu   sync.Mutex
	live map[*Snapshot]struct{}
	_    [32]byte // keep stripes off one cache line
}

// Snapshot pins a point-in-time view of the committed tier. Reads at
// the snapshot's LSN see every commit published before acquisition
// and none after; the version GC keeps every version a live snapshot
// can reach. Release it when done — a leaked snapshot pins garbage
// forever.
type Snapshot struct {
	lsn      uint64
	s        *Store
	stripe   int
	released atomic.Bool
}

// LSN returns the snapshot's commit LSN.
func (h *Snapshot) LSN() uint64 { return h.lsn }

// AcquireSnapshot registers a snapshot at the current published LSN.
func (s *Store) AcquireSnapshot() *Snapshot {
	h := &Snapshot{s: s, stripe: int(s.snapSeq.Add(1) % snapStripes)}
	// Increment the live count BEFORE reading published: the inline
	// trim in installCommitted reads published and then checks the
	// count, so a registration it observed as absent must read
	// published after the trim's read — at or above any watermark the
	// trim could have cut at.
	s.snapsLive.Add(1)
	st := &s.snaps[h.stripe]
	st.mu.Lock()
	// Read published inside the stripe lock: the GC scans each stripe
	// under its mutex after reading published once, so a registration
	// the GC's scan missed must have read published at or above the
	// GC's watermark — the versions it needs are never collected.
	h.lsn = s.published.Load()
	st.live[h] = struct{}{}
	st.mu.Unlock()
	return h
}

// Release unregisters the snapshot. Idempotent; nil-safe.
func (h *Snapshot) Release() {
	if h == nil || h.released.Swap(true) {
		return
	}
	st := &h.s.snaps[h.stripe]
	st.mu.Lock()
	delete(st.live, h)
	st.mu.Unlock()
	h.s.snapsLive.Add(-1)
}

// oldestSnapshotLSN returns the GC watermark: the smallest LSN any
// live snapshot (or a fresh one) could read at. Must read published
// before scanning the stripes — see AcquireSnapshot.
func (s *Store) oldestSnapshotLSN() (lsn uint64, live int) {
	lsn = s.published.Load()
	for i := range s.snaps {
		st := &s.snaps[i]
		st.mu.Lock()
		for h := range st.live {
			live++
			if h.lsn < lsn {
				lsn = h.lsn
			}
		}
		st.mu.Unlock()
	}
	return lsn, live
}

// OldestSnapshotLSN reports the current GC watermark (stats/gauge).
func (s *Store) OldestSnapshotLSN() uint64 {
	lsn, _ := s.oldestSnapshotLSN()
	return lsn
}

// --- version garbage collection ---

// gcEveryCommits is the background GC cadence: a sweep is kicked once
// this many top-level commits have landed since the last one.
const gcEveryCommits = 1024

// GCResult describes one VersionGC sweep.
type GCResult struct {
	// Chains is the number of candidate chains examined.
	Chains int `json:"chains"`
	// Reclaimed is the number of versions unlinked.
	Reclaimed int `json:"reclaimed"`
	// Removed is the number of tombstone-headed chains deleted whole.
	Removed int `json:"removed"`
	// Watermark is the oldest-active-snapshot LSN the sweep used.
	Watermark uint64 `json:"watermark"`
}

// VersionGC unlinks committed versions no live snapshot can reach.
// For each candidate chain it keeps the newest version at or below
// the oldest active snapshot LSN (the version that snapshot resolves
// to) and everything newer, and unlinks the rest; a chain whose only
// reachable state is a tombstone is removed from the heap outright.
// Secondary-index entries of dropped versions are deleted unless a
// surviving version of the same chain carries the same key (installs
// defer index removal to this sweep so old snapshots keep probing
// correctly). Sweeps are serialized; safe to call concurrently with
// readers and committers.
func (s *Store) VersionGC() GCResult {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	var res GCResult
	res.Watermark, _ = s.oldestSnapshotLSN()
	s.mu.Lock()
	cand := s.gcCand
	s.gcCand = make(map[datum.OID]struct{}, 8)
	s.mu.Unlock()
	for oid := range cand {
		// Per-OID writer sections keep GC pauses off the commit path;
		// mu freezes the entry (installs, Put, abort, and entry removal
		// all hold it).
		s.mu.Lock()
		if !s.gcChain(oid, res.Watermark, &res) {
			// Still collectible later (e.g. a pinned snapshot below the
			// chain's versions): re-arm candidacy.
			s.gcCand[oid] = struct{}{}
		}
		s.mu.Unlock()
		res.Chains++
	}
	s.nGCRuns.Add(1)
	s.nGCReclaimed.Add(uint64(res.Reclaimed))
	return res
}

// gcChain collects one chain at watermark w. Caller holds s.mu.
// Returns true when nothing collectible remains.
func (s *Store) gcChain(oid datum.OID, w uint64, res *GCResult) bool {
	e := s.entry(oid)
	if e == nil {
		return true
	}
	head := e.head.Load()
	if head == nil {
		return true
	}
	// keep = the version the oldest live snapshot resolves to; all
	// older versions are unreachable by any current or future reader.
	keep := head
	for keep.lsn > w {
		next := keep.prev.Load()
		if next == nil {
			// Every version is newer than the watermark: a snapshot at
			// w resolves to nothing, newer snapshots need what's here.
			// Re-arm unless the chain is a lone live version (a deeper
			// or tombstoned chain becomes collectible as w advances).
			return keep == head && !head.rec.Deleted
		}
		keep = next
	}
	var dropped []*mvVersion
	for v := keep.prev.Load(); v != nil; v = v.prev.Load() {
		dropped = append(dropped, v)
	}
	dead := head == keep && keep.rec.Deleted && e.nUnc.Load() == 0
	if len(dropped) == 0 && !dead {
		// Nothing to cut this round. Still a candidate if the chain is
		// deeper than one version (the versions above keep become
		// droppable once the pinning snapshot releases) or the head is
		// a tombstone (it collapses once its uncommitted writers and
		// old snapshots drain).
		return keep == head && !head.rec.Deleted
	}
	keep.prev.Store(nil)
	res.Reclaimed += len(dropped)
	// Recount the chain so depth-driven stats stay honest after a cut.
	n := uint32(0)
	for v := head; v != nil; v = v.prev.Load() {
		n++
	}
	head.depth.Store(n)
	if dead {
		// The only reachable state is a deletion: drop the whole
		// object. A lock-free reader still holding e sees the
		// tombstone and reports not-found, same as before.
		dropped = append(dropped, keep)
		res.Reclaimed++
		res.Removed++
		s.objects.Delete(oid)
	}
	// Index cleanup: delete a dropped version's entry unless a
	// surviving version still carries the key (the btree stores one
	// entry per (key, oid) pair). This runs under the writer mutex on
	// every install that trims, and chains are a few versions long, so
	// it walks the survivors rather than building a set.
	indexes := *s.indexes.Load()
	for _, v := range dropped {
		if v.rec.Deleted {
			continue
		}
		for attr, ix := range indexes[v.rec.Class] {
			val, ok := v.rec.Row.Get(attr)
			if !ok {
				continue
			}
			if key := val.Key(); dead || !carries(head, v.rec.Class, attr, key) {
				ix.mu.Lock()
				ix.t.Delete(key, oid)
				ix.mu.Unlock()
			}
		}
	}
	if dead {
		for _, v := range dropped {
			s.extentDel(v.rec.Class, oid)
		}
		return true
	}
	// A tombstone-headed chain is still waiting (on the watermark or
	// an uncommitted version) to be removed whole, and a chain still
	// holding history above the watermark sheds it as the watermark
	// advances: both keep candidacy. A lone live version is done — the
	// next install re-adds it.
	return keep == head && !head.rec.Deleted
}

// carries reports whether a live version of the chain from head has key
// as its class.attr index key.
func carries(head *mvVersion, class, attr, key string) bool {
	for v := head; v != nil; v = v.prev.Load() {
		if !v.rec.Deleted && v.rec.Class == class {
			if val, ok := v.rec.Row.Get(attr); ok && val.Key() == key {
				return true
			}
		}
	}
	return false
}

// maybeKickGC starts a background VersionGC sweep every
// gcEveryCommits top-level commits. Single-flight; never after Close.
func (s *Store) maybeKickGC() {
	if s.gcTick.Add(1)%gcEveryCommits != 0 {
		return
	}
	s.bgMu.Lock()
	if s.closing || s.gcRunning {
		s.bgMu.Unlock()
		return
	}
	s.gcRunning = true
	s.bgWG.Add(1)
	s.bgMu.Unlock()
	go func() {
		defer s.bgWG.Done()
		s.VersionGC()
		s.bgMu.Lock()
		s.gcRunning = false
		s.bgMu.Unlock()
	}()
}
