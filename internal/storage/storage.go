// Package storage implements the versioned object heap beneath the
// Object Manager. Each committed object carries a chain of versions
// stamped with logical commit LSNs (see mvcc.go); uncommitted
// versions are tagged by the transaction that wrote them. A reader
// sees its own newest version, else the newest version of an
// ancestor, else the newest committed version at its snapshot LSN.
// Folding a child's versions into its parent at nested commit gives
// the nested-transaction atomicity of §3.1 of the paper without
// copying objects up front.
//
// The store is also the durability point: top-level commits append a
// redo record to the write-ahead log before the committed tier is
// updated, and Open replays the log (over an optional checkpoint
// snapshot) to recover. Only committed top-level effects are ever
// logged, so recovery is a pure redo pass.
//
// The heap is one map of object entries, one extent per class and one
// btree per indexed class.attr. Reads of committed data are lock-free:
// entries live in a sync.Map, extents are OID-ordered chunk
// directories (extent.go), version heads are atomic pointers, and
// readers resolve visibility against a snapshot LSN without taking the
// heap's writer mutex or the lock table. Writers (Put, install, abort,
// GC) take that one mutex to keep the extent, dirty-set and GC
// bookkeeping coherent; each index tree has a read/write lock of its
// own, so an index probe never waits on the writer mutex. Isolation
// still comes from the lock manager driven by the layers above.
//
// A stored version is an Object whose attributes are a datum.Row: an
// interned shape (the sorted attribute names, shared by every version
// with the same names) and the values in that order. Versions are
// immutable and shared: every read — Get, GetAt, the scans — returns
// the stored Object itself, row included, and nothing on the read path
// copies. Maps appear only at the store's edge: Put takes a Record with
// an attribute map and stores it as a row, and Object.Record turns a
// version back into one where it leaves the engine. The redo and
// snapshot codecs write a row's slots in shape order, which is the
// sorted order datum.EncodeMap writes, so the on-disk bytes are those
// of the map.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/datum"
	"repro/internal/failpoint"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/wal"
)

// committedOwner tags versions in the committed tier.
const committedOwner lock.TxnID = 0

// frameOverheadBytes is the WAL's per-record framing cost (length +
// CRC); a record appended at LSN x advances the log end to
// x + frameOverheadBytes + len(payload).
const frameOverheadBytes = 8

// Record is one object state as a map, the form it has at the store's
// edge: Put takes one, and Object.Record makes one for a caller outside
// the engine. Attrs belongs to whoever holds the Record.
type Record struct {
	OID     datum.OID
	Class   string
	Attrs   map[string]datum.Value
	Deleted bool
}

// Object is one stored object state: its identity, class, attributes,
// and whether this version is a deletion tombstone. An Object read from
// the store is the stored version, shared with every other reader; its
// Row is immutable (derive the next state with Row.Update or
// datum.RowOf).
type Object struct {
	OID     datum.OID
	Class   string
	Row     datum.Row
	Deleted bool
}

// Record returns o with its attributes copied into a new map.
func (o Object) Record() Record {
	return Record{OID: o.OID, Class: o.Class, Attrs: o.Row.Map(), Deleted: o.Deleted}
}

// Topology resolves transaction ancestry for visibility; the
// transaction manager implements it.
type Topology interface {
	IsAncestorOrSelf(anc, desc lock.TxnID) bool
	// Parent returns tx's parent; false for a top-level (or unknown)
	// transaction.
	Parent(tx lock.TxnID) (lock.TxnID, bool)
}

// version is one uncommitted object state, tagged by the transaction
// that wrote it. Committed states live in mvVersion chains (mvcc.go).
type version struct {
	owner lock.TxnID
	rec   Object
}

// compactFraction sets the compaction threshold: the chain compacts
// once the cumulative delta bytes written since the last full snapshot
// reach 1/compactFraction of that snapshot's size. Compaction work
// then tracks actual churn — a write-heavy store compacts often, a
// quiet one lets its (cheap) chain grow.
const compactFraction = 2

// Options configures a Store.
type Options struct {
	// Dir is the durability directory (snapshot chain + WAL). Empty
	// means ephemeral: no logging, no recovery.
	Dir string
	// NoSync disables fsync on the WAL.
	NoSync bool
	// CheckpointAfterBytes, when >0, kicks a background checkpoint
	// whenever the WAL has grown by at least this many bytes since the
	// last checkpoint finished. The check runs after each commit's
	// group flush; the checkpoint itself runs on its own goroutine so
	// the triggering commit is never stalled.
	CheckpointAfterBytes uint64
	// OnAsyncError receives errors from background (size-triggered)
	// checkpoints. nil discards them.
	OnAsyncError func(error)
	// Obs, when non-nil, receives WAL fsync latencies, group-commit
	// batch sizes and commit-stall latencies.
	Obs *obs.Metrics
}

// index is the committed-tier btree of one class.attr. Installs and
// the version GC mutate the tree under mu (they also hold the store's
// writer mutex); probes read-lock mu alone.
type index struct {
	mu sync.RWMutex
	t  *btree.Tree
}

// indexSet files the registered indexes by class, then attribute. It
// is immutable once published: RegisterIndex copies it.
type indexSet map[string]map[string]*index

// txnDirty is one transaction's write set. The entry mutex covers the
// set: the owning transaction adds to it, and other transactions'
// IndexCandidates calls read it through their visibility check.
type txnDirty struct {
	mu   sync.Mutex
	oids map[datum.OID]struct{}
}

// Store is the versioned heap.
type Store struct {
	topo Topology
	// mu is the heap's writer mutex: it guards entry membership in
	// objects, every extent directory, ckptDirty and gcCand. objects and
	// extents are read lock-free by the MVCC read path, and index probes
	// take only the probed tree's lock. Lock order: ckptMu and imu
	// before mu; mu before an index's mu, an entry's umu, and cmu.
	mu        sync.Mutex
	objects   sync.Map               // datum.OID -> *mvEntry
	extents   sync.Map               // class string -> *extent
	ckptDirty map[datum.OID]string   // OIDs committed since the last checkpoint -> class
	gcCand    map[datum.OID]struct{} // chains that may hold collectible versions
	// indexes is the published indexSet, replaced whole under imu and
	// mu by RegisterIndex.
	indexes atomic.Pointer[indexSet]

	dirty  sync.Map // lock.TxnID -> *txnDirty
	modSeq sync.Map // class string -> *atomic.Uint64
	// statsSeed holds the per-class extent cardinalities carried by the
	// newest snapshot-chain element loaded at Open: checkpoint-time
	// planner statistics that answer ExtentEstimate even before (or
	// without) the live counters seeing the class. Written only during
	// single-threaded recovery; read-only afterwards.
	statsSeed map[string]uint64
	nextOID   atomic.Uint64
	log       *wal.Log
	dir       string
	noSync    bool
	obsm      *obs.Metrics // nil-safe commit-stall observer

	// imu serializes index registration (RegisterIndex must build the
	// tree of one class.attr exactly once).
	imu sync.Mutex

	// inflight holds the LSNs of redo records that have been appended
	// to the WAL but whose versions are not yet installed in the
	// committed tier. The fuzzy checkpointer's watermark is the
	// smallest in-flight LSN (or the log end if none): every record
	// below it is guaranteed to be in the snapshot scan. Guarded by
	// cmu.
	cmu      sync.Mutex
	inflight map[wal.LSN]struct{}
	// Commit-LSN publish protocol (mvcc.go): nextCommit/pending are
	// guarded by cmu; published is the contiguous prefix of completed
	// commit LSNs, advanced under cmu and read lock-free by snapshot
	// acquisition. pubCond (on cmu) wakes committers waiting for their
	// LSN to publish.
	nextCommit uint64
	pending    map[uint64]struct{}
	published  atomic.Uint64
	pubCond    *sync.Cond

	// Snapshot registry + version GC state (mvcc.go). gcMu serializes
	// sweeps; gcRunning (under bgMu) single-flights the background
	// sweep maybeKickGC starts every gcEveryCommits commits.
	snaps     [snapStripes]snapStripe
	snapSeq   atomic.Uint64
	snapsLive atomic.Int64
	gcMu      sync.Mutex
	gcRunning bool
	gcTick    atomic.Uint64

	// loading marks the single-threaded recovery phase of Open:
	// installs then replace chain heads outright (no history — there
	// are no snapshots yet) and tombstones drop entries immediately.
	loading bool

	// ckptMu serializes checkpoints (they are rare; overlapping ones
	// would race on snapshot.tmp and the chain-link state below, which
	// it also guards).
	ckptMu sync.Mutex
	// Chain-link state for the next checkpoint, guarded by ckptMu:
	// the tip element's watermark and trailing CRC, whether a full
	// snapshot exists (a delta needs a parent), and the sequence
	// number of the newest chain element (reset by compaction).
	chainWatermark wal.LSN
	chainCRC       uint32
	haveFull       bool
	deltaSeq       int
	// fullBytes/deltaBytes drive compaction: the last full snapshot's
	// encoded size and the bytes of delta files written (or reloaded)
	// since. Guarded by ckptMu.
	fullBytes  uint64
	deltaBytes uint64

	// Size-trigger state: lastCkptEnd is the log end when the last
	// checkpoint finished (growth beyond ckptAfterBytes kicks a
	// background checkpoint). bgMu orders kicks against Close so the
	// WaitGroup is never Added after Close begins waiting.
	ckptAfterBytes uint64
	lastCkptEnd    atomic.Uint64
	onAsyncErr     func(error)
	bgMu           sync.Mutex
	bgRunning      bool
	closing        bool
	bgWG           sync.WaitGroup

	// Counters are atomic: reads (Get/Scan) bump them while holding
	// no lock at all.
	nPuts, nGets, nScans, nProbes, nCommits, nWALBytes atomic.Uint64
	nRows                                              atomic.Uint64
	nCheckpoints, nFullCkpts, nDeltaCkpts              atomic.Uint64
	nWALReclaimed                                      atomic.Uint64
	nGCRuns, nGCReclaimed                              atomic.Uint64
}

// Stats counts store activity.
type Stats struct {
	Puts  uint64
	Gets  uint64
	Scans uint64
	// RowsScanned counts extent slots the class scans resolved (Scans
	// counts only whole-class scans, this also the range scans of the
	// parallel executor): against the rows a query returned it is the
	// scan's selectivity.
	RowsScanned uint64
	IndexProbes uint64
	TopCommits  uint64
	WALBytes    uint64
	// WALFsyncs counts physical fsyncs; WALSyncRequests counts commits
	// that asked for durability. Fsyncs/requests < 1 means group
	// commit is batching concurrent committers into shared flushes.
	WALFsyncs       uint64
	WALSyncRequests uint64
	// Checkpoints counts completed fuzzy checkpoints;
	// FullCheckpoints/DeltaCheckpoints split them by kind (a full
	// checkpoint rewrites the whole committed tier and compacts the
	// delta chain; a delta writes only the OIDs dirtied since the last
	// checkpoint). WALBytesReclaimed totals the log bytes truncated.
	Checkpoints       uint64
	FullCheckpoints   uint64
	DeltaCheckpoints  uint64
	WALBytesReclaimed uint64
	// PublishedLSN is the newest commit LSN visible to fresh
	// snapshots; OldestSnapshotLSN is the version-GC watermark (equal
	// to PublishedLSN when no snapshot is pinned); LiveSnapshots
	// counts currently registered snapshots. GCRuns/VersionsReclaimed
	// count version-GC sweeps and the versions they unlinked.
	PublishedLSN      uint64
	OldestSnapshotLSN uint64
	LiveSnapshots     int
	GCRuns            uint64
	VersionsReclaimed uint64
	// Shapes is the number of distinct attribute-name sets interned
	// process-wide (datum.Shapes). Every version with the same names
	// shares one, so it stays at a few per class; a count that grows
	// with the number of writes means rows are not sharing shapes.
	Shapes int
}

// Open creates a store. If opts.Dir is non-empty the store loads the
// snapshot chain (full snapshot plus deltas, if present), starts a
// fresh WAL at the chain watermark if the log ends below it, replays
// the WAL, and will log all future top-level commits there.
func Open(topo Topology, opts Options) (*Store, error) {
	s := &Store{
		topo:           topo,
		ckptDirty:      map[datum.OID]string{},
		gcCand:         map[datum.OID]struct{}{},
		inflight:       map[wal.LSN]struct{}{},
		nextCommit:     1,
		pending:        map[uint64]struct{}{},
		ckptAfterBytes: opts.CheckpointAfterBytes,
		onAsyncErr:     opts.OnAsyncError,
		dir:            opts.Dir,
		noSync:         opts.NoSync,
		obsm:           opts.Obs,
	}
	s.pubCond = sync.NewCond(&s.cmu)
	for i := range s.snaps {
		s.snaps[i].live = map[*Snapshot]struct{}{}
	}
	s.indexes.Store(&indexSet{})
	s.nextOID.Store(1)
	if opts.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir %s: %w", opts.Dir, err)
	}
	s.loading = true
	watermark, err := s.loadChain()
	if err != nil {
		return nil, err
	}
	walPath := filepath.Join(opts.Dir, "wal")
	walOpts := wal.Options{NoSync: opts.NoSync, Obs: opts.Obs}
	l, err := wal.Open(walPath, walOpts)
	if err != nil {
		return nil, err
	}
	// A log that ends below the chain watermark holds only records the
	// chain already covers (a missing WAL opens empty at base 0). The
	// next commit would be logged below the watermark, where the
	// following replay skips it, so start an empty log at the watermark.
	if l.End() < watermark {
		l.Close()
		if err := os.Remove(walPath); err != nil {
			return nil, fmt.Errorf("storage: rebase wal: %w", err)
		}
		if err := wal.InitFile(walPath, watermark); err != nil {
			return nil, err
		}
		if l, err = wal.Open(walPath, walOpts); err != nil {
			return nil, err
		}
	}
	s.log = l
	// The checkpointer renames the snapshot before truncating the log,
	// so on any crash the snapshot covers at least everything the log
	// has dropped. A base past the watermark means records are gone
	// from both places — refuse to open rather than lose data silently.
	if base := l.Base(); base > watermark {
		l.Close()
		return nil, fmt.Errorf("storage: recovery: wal base %d beyond snapshot watermark %d", base, watermark)
	}
	if err := l.Replay(func(lsn wal.LSN, payload []byte) error {
		if lsn < watermark {
			// Already folded into the snapshot (watermark invariant);
			// the record survives in the log only because truncation
			// runs after the snapshot rename.
			return nil
		}
		return s.applyRedo(payload)
	}); err != nil {
		l.Close()
		return nil, fmt.Errorf("storage: recovery: %w", err)
	}
	s.loading = false
	// Seed the size trigger at the chain watermark, not the log end:
	// a WAL suffix surviving from before the crash counts as growth,
	// so an over-threshold backlog checkpoints on the first commit.
	s.lastCkptEnd.Store(uint64(watermark))
	// Checkpoint-on-open: a surviving WAL suffix already past the size
	// trigger is folded into the chain now, while the store is still
	// private to this goroutine, rather than being replayed again on
	// the next crash and only reclaimed after the first post-open
	// commit. A failure here is as fatal as a recovery failure — the
	// directory is writable-or-not, and finding out now beats finding
	// out on the first background checkpoint.
	if s.ckptAfterBytes > 0 && uint64(l.End())-uint64(watermark) > s.ckptAfterBytes {
		if _, err := s.checkpoint(false); err != nil {
			l.Close()
			return nil, fmt.Errorf("storage: checkpoint-on-open: %w", err)
		}
	}
	return s, nil
}

// Close waits out any background (size-triggered) checkpoint, then
// closes the WAL, if any.
func (s *Store) Close() error {
	s.bgMu.Lock()
	s.closing = true
	s.bgMu.Unlock()
	s.bgWG.Wait()
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// AllocOID returns a fresh, never-reused object identifier.
func (s *Store) AllocOID() datum.OID {
	return datum.OID(s.nextOID.Add(1) - 1)
}

// raiseNextOID lifts the allocator above oid (recovery paths).
func (s *Store) raiseNextOID(oid datum.OID) {
	for {
		cur := s.nextOID.Load()
		if uint64(oid) < cur {
			return
		}
		if s.nextOID.CompareAndSwap(cur, uint64(oid)+1) {
			return
		}
	}
}

// loadOrNew returns the *T filed under key in m, filing a zero T on
// first use. Lock-free once the key exists.
func loadOrNew[T any](m *sync.Map, key any) *T {
	if v, ok := m.Load(key); ok {
		return v.(*T)
	}
	v, _ := m.LoadOrStore(key, new(T))
	return v.(*T)
}

// bumpSeq advances the class's modification counter.
func (s *Store) bumpSeq(class string) {
	loadOrNew[atomic.Uint64](&s.modSeq, class).Add(1)
}

// Put installs rec as tx's uncommitted version of the object,
// replacing any prior version tx wrote. The caller must already hold
// the appropriate exclusive lock. rec.Attrs is only read: the version
// is a row built from it.
func (s *Store) Put(tx lock.TxnID, rec Record) {
	s.PutObject(tx, Object{OID: rec.OID, Class: rec.Class, Row: datum.RowOf(rec.Attrs), Deleted: rec.Deleted})
}

// PutObject is Put for a state that is already a row; the Object
// Manager builds its rows itself.
func (s *Store) PutObject(tx lock.TxnID, rec Object) {
	s.nPuts.Add(1)
	s.mu.Lock()
	e := s.entryLocked(rec.OID)
	e.umu.Lock()
	// A rewrite moves to the end: the newest write wins within the
	// owner tier.
	e.dropOwner(tx)
	e.setUnc(append(e.unc, version{owner: tx, rec: rec}))
	e.umu.Unlock()
	s.extentAdd(rec.Class, rec.OID, e)
	s.mu.Unlock()
	// Bump after the write, so whoever sees the new sequence number
	// also sees the write.
	s.bumpSeq(rec.Class)
	s.noteDirty(tx, rec.OID)
}

// entryLocked returns oid's entry, creating it if needed. Caller
// holds s.mu (entry membership is mutated only under it).
func (s *Store) entryLocked(oid datum.OID) *mvEntry {
	if e := s.entry(oid); e != nil {
		return e
	}
	e := &mvEntry{}
	s.objects.Store(oid, e)
	return e
}

// entry returns oid's entry, or nil. Lock-free.
func (s *Store) entry(oid datum.OID) *mvEntry {
	if v, ok := s.objects.Load(oid); ok {
		return v.(*mvEntry)
	}
	return nil
}

func (s *Store) noteDirty(tx lock.TxnID, oid datum.OID) {
	d := loadOrNew[txnDirty](&s.dirty, tx)
	d.mu.Lock()
	if d.oids == nil {
		d.oids = map[datum.OID]struct{}{}
	}
	d.oids[oid] = struct{}{}
	d.mu.Unlock()
}

// sorted returns the write set in OID order.
func (d *txnDirty) sorted() []datum.OID {
	d.mu.Lock()
	oids := make([]datum.OID, 0, len(d.oids))
	for oid := range d.oids {
		oids = append(oids, oid)
	}
	d.mu.Unlock()
	slices.Sort(oids)
	return oids
}

// takeDirty removes and returns tx's write set (sorted), or nil.
func (s *Store) takeDirty(tx lock.TxnID) []datum.OID {
	if v, ok := s.dirty.LoadAndDelete(tx); ok {
		return v.(*txnDirty).sorted()
	}
	return nil
}

// SeededStats returns a copy of the per-class extent cardinalities the
// newest snapshot-chain element carried at Open (nil when the chain
// predates checkpoint statistics). Planner statistics are seeded from
// these on a cold start instead of live structure probes.
func (s *Store) SeededStats() map[string]uint64 {
	if len(s.statsSeed) == 0 {
		return nil
	}
	return maps.Clone(s.statsSeed)
}

// IndexEstimate counts committed-tier index entries on class.attr in
// [lo, hi], stopping early once limit entries are seen (pass limit<=0
// for an exact count). ok is false when no index exists. The count
// includes entries for older, not-yet-GC'd versions — like the extent
// estimate it is a cheap upper bound for cost estimation, not an
// exact selectivity.
func (s *Store) IndexEstimate(class, attr string, lo, hi btree.Bound, limit int) (int, bool) {
	n := 0
	ok := s.scanIndex(class, attr, lo, hi, func(datum.OID) bool {
		n++
		return limit <= 0 || n < limit
	})
	return n, ok
}

// scanIndex visits the committed-tier index entries of class.attr in
// [lo, hi] until fn declines, and reports whether the index exists. The
// probe read-locks the one tree (installs and the GC mutate it in
// place), never the heap's writer mutex.
func (s *Store) scanIndex(class, attr string, lo, hi btree.Bound, fn func(datum.OID) bool) bool {
	ix := (*s.indexes.Load())[class][attr]
	if ix == nil {
		return false
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.t.Scan(lo, hi, func(_ string, oid datum.OID) bool { return fn(oid) })
	return true
}

// Get returns the version of the object visible to tx: the newest
// version owned by tx or an ancestor, else the newest published
// committed version. Lock-free for committed data — no writer mutex,
// no lock table. The second result is false if no visible version
// exists or the visible version is a deletion tombstone (the record
// is still returned so callers can see the tombstone's class). The
// object is the stored version, shared and read-only (see Object).
//
// Reading at the latest published LSN (rather than a pinned snapshot)
// keeps writers correct under two-phase locking: a transaction
// holding an exclusive lock always sees the newest committed state,
// because the previous writer's commit published before its locks
// were released.
func (s *Store) Get(tx lock.TxnID, oid datum.OID) (Object, bool) {
	for {
		p := s.published.Load()
		rec, ok := s.GetAt(tx, oid, p)
		if ok || s.published.Load() == p {
			return rec, ok
		}
		// Miss with a moved frontier: a GC cut (whose watermark is
		// always at or below published at cut time) may have raced
		// our read of p — versions visible at p exist only above a
		// watermark > p, which implies published has advanced past p.
		// Retry at the new frontier; one round suffices unless the
		// race recurs.
	}
}

// GetAt is Get against an explicit snapshot LSN (see AcquireSnapshot).
func (s *Store) GetAt(tx lock.TxnID, oid datum.OID, snap uint64) (Object, bool) {
	s.nGets.Add(1)
	e := s.entry(oid)
	if e == nil {
		return Object{}, false
	}
	return s.resolve(e, tx, snap)
}

// RegisterIndex declares (and builds, from the committed tier) a
// secondary index on class.attr. Idempotent. The build and the
// publication share one writer section, so every install lands either
// in the build's walk or, once published, in the tree itself.
func (s *Store) RegisterIndex(class, attr string) {
	s.imu.Lock()
	defer s.imu.Unlock()
	if s.HasIndex(class, attr) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ix := &index{t: btree.New()}
	for c := s.cursor(class, 0); !c.done(); {
		sl := c.pop()
		// Index every committed version, not just the head: a snapshot
		// pinned below the head must still find its rows (the btree
		// dedups (key, oid) pairs; stale entries are false positives
		// callers re-verify, removed by the GC).
		for v := sl.e.head.Load(); v != nil; v = v.prev.Load() {
			if v.rec.Deleted || v.rec.Class != class {
				continue
			}
			if val, ok := v.rec.Row.Get(attr); ok {
				ix.t.Insert(val.Key(), sl.oid)
			}
		}
	}
	next := maps.Clone(*s.indexes.Load())
	byAttr := maps.Clone(next[class])
	if byAttr == nil {
		byAttr = map[string]*index{}
	}
	byAttr[attr] = ix
	next[class] = byAttr
	s.indexes.Store(&next)
}

// HasIndex reports whether class.attr has a registered index.
func (s *Store) HasIndex(class, attr string) bool {
	return (*s.indexes.Load())[class][attr] != nil
}

// IndexCandidates returns OIDs that *may* satisfy lo <= attr <= hi
// for transaction tx: the committed-tier index hits plus every object
// tx (or an ancestor) has written in the class. Callers must re-check
// the predicate against the visible record (at their snapshot);
// candidates may include false positives — including entries for
// older versions not yet garbage-collected — but never miss a match
// visible at any live snapshot. The subsequent record resolution is
// lock-free.
func (s *Store) IndexCandidates(tx lock.TxnID, class, attr string, lo, hi btree.Bound) []datum.OID {
	s.nProbes.Add(1)
	var out []datum.OID
	if !s.scanIndex(class, attr, lo, hi, func(oid datum.OID) bool {
		out = append(out, oid)
		return true
	}) {
		return nil
	}
	// Uncommitted writes are invisible to the committed index: add the
	// objects of this class that tx or one of its ancestors has dirty.
	for id, ok := tx, tx != committedOwner; ok; id, ok = s.topo.Parent(id) {
		for _, oid := range s.DirtyOIDs(id) {
			if e := s.entry(oid); e != nil && e.newestClass() == class {
				out = append(out, oid)
			}
		}
	}
	// An OID repeats when several of its versions (or its dirty version)
	// fall in the range; sorting brings the repeats together.
	slices.Sort(out)
	return slices.Compact(out)
}

// ModSeq returns a counter that increases whenever the class is
// written (by any transaction, committed or not). A replica watches
// the catalog class with it.
func (s *Store) ModSeq(class string) uint64 {
	if v, ok := s.modSeq.Load(class); ok {
		return v.(*atomic.Uint64).Load()
	}
	return 0
}

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Puts:              s.nPuts.Load(),
		Gets:              s.nGets.Load(),
		Scans:             s.nScans.Load(),
		RowsScanned:       s.nRows.Load(),
		IndexProbes:       s.nProbes.Load(),
		TopCommits:        s.nCommits.Load(),
		WALBytes:          s.nWALBytes.Load(),
		Checkpoints:       s.nCheckpoints.Load(),
		FullCheckpoints:   s.nFullCkpts.Load(),
		DeltaCheckpoints:  s.nDeltaCkpts.Load(),
		WALBytesReclaimed: s.nWALReclaimed.Load(),
		PublishedLSN:      s.published.Load(),
		GCRuns:            s.nGCRuns.Load(),
		VersionsReclaimed: s.nGCReclaimed.Load(),
		Shapes:            datum.Shapes(),
	}
	st.OldestSnapshotLSN, st.LiveSnapshots = s.oldestSnapshotLSN()
	if s.log != nil {
		st.WALFsyncs = s.log.Fsyncs()
		st.WALSyncRequests = s.log.SyncRequests()
	}
	return st
}

// DirtyOIDs returns the objects tx itself has written (not
// ancestors'), sorted. The rule manager uses it for delta queries.
func (s *Store) DirtyOIDs(tx lock.TxnID) []datum.OID {
	if v, ok := s.dirty.Load(tx); ok {
		return v.(*txnDirty).sorted()
	}
	return nil
}

// --- txn.Participant ---

// CommitNested folds the child's versions into the parent tier.
func (s *Store) CommitNested(child, parent lock.TxnID) error {
	for _, oid := range s.takeDirty(child) {
		e := s.entry(oid)
		if e == nil {
			continue
		}
		// Drop the parent's own older version (the child's is newer
		// and the parent cannot roll back to it independently), then
		// re-tag the child's version as the parent's.
		e.umu.Lock()
		cv, written := e.dropOwner(child)
		if written {
			e.dropOwner(parent)
			cv.owner = parent
			e.setUnc(append(e.unc, cv))
		}
		e.umu.Unlock()
		if written {
			s.noteDirty(parent, oid)
		}
	}
	return nil
}

// CommitTop makes tx's versions durable and visible to everyone. It
// runs in three phases so the disk flush never stalls the store:
//
//  1. prepare — collect the new committed states from tx's write set
//     (uncommitted entries, under their entry mutexes);
//  2. log — append the redo record, assign the commit LSN, and
//     group-fsync with no store lock held, so concurrent committers
//     batch into shared flushes;
//  3. install, then publish — push the new versions onto their chains
//     and update secondary indexes in one writer section, then mark
//     the commit LSN complete. Lock-free readers see the commit only once the
//     published frontier crosses its LSN, which happens only when
//     every record of this commit — and of every earlier commit — is
//     installed, so a snapshot can never observe half a commit.
//
// The write-ahead invariant holds: no version installs before its log
// record is durable. Reading the prepared records outside the writer
// mutex is safe because versions are immutable once Put (rows are never
// written, readers only borrow them), tx's own versions cannot
// change while its single commit goroutine is here, and tx still
// holds its exclusive locks, so no other committer touches the same
// objects.
//
// CommitTop returns only after its LSN publishes (read-your-commits
// for the caller, which releases tx's locks next). The wait is
// bounded by earlier committers finishing their installs — their WAL
// records were flushed by the same group commit.
func (s *Store) CommitTop(tx lock.TxnID) error {
	s.nCommits.Add(1)

	// Prepare.
	oids := s.takeDirty(tx)
	recs := make([]Object, 0, len(oids))
	for _, oid := range oids {
		if e := s.entry(oid); e != nil {
			e.umu.Lock()
			for i := range e.unc {
				if e.unc[i].owner == tx {
					recs = append(recs, e.unc[i].rec)
					break
				}
			}
			e.umu.Unlock()
		}
	}
	if len(recs) == 0 {
		return nil
	}

	// Log before install (write-ahead), outside the writer mutex. The
	// record's WAL LSN is registered as in-flight — and the logical
	// commit LSN assigned — under cmu in the same critical section as
	// the append, so a concurrent checkpoint either sees this commit
	// installed or holds its watermark below the record (the
	// watermark invariant), and commit-LSN order matches log order.
	var lsn wal.LSN
	var clsn uint64
	logged := false
	if s.log != nil {
		payload := encodeRedo(recs)
		s.cmu.Lock()
		var err error
		lsn, err = s.log.Append(payload)
		if err != nil {
			s.cmu.Unlock()
			return err
		}
		s.inflight[lsn] = struct{}{}
		clsn = s.beginCommitLocked()
		s.cmu.Unlock()
		logged = true
		tm := s.obsm.Timer(obs.HCommitStall)
		if err := s.log.SyncTo(lsn + wal.LSN(frameOverheadBytes+len(payload))); err != nil {
			s.cmu.Lock()
			delete(s.inflight, lsn)
			s.endCommitLocked(clsn) // abandoned: nothing installed at clsn
			s.cmu.Unlock()
			return err
		}
		tm.Done()
		s.nWALBytes.Add(uint64(len(payload)))
	} else {
		s.cmu.Lock()
		clsn = s.beginCommitLocked()
		s.cmu.Unlock()
	}

	s.installAll(tx, recs, clsn)

	// Publish: deregister the WAL LSN and complete the commit LSN only
	// after the install — a checkpoint scan that missed
	// these versions must still see the LSN in flight, and a snapshot
	// must not resolve to a partially installed commit.
	s.cmu.Lock()
	if logged {
		delete(s.inflight, lsn)
	}
	s.endCommitLocked(clsn)
	s.cmu.Unlock()
	s.waitPublished(clsn)
	if logged {
		s.maybeKickCheckpoint()
	}
	s.maybeKickGC()
	return nil
}

// installAll pushes one commit's records onto their chains at clsn in
// one writer section. The mark for the next delta snapshot rides the
// same section as the install, so a checkpoint's dirty-set swap sees
// the version and the mark together or neither.
func (s *Store) installAll(owner lock.TxnID, recs []Object, clsn uint64) {
	s.mu.Lock()
	for _, rec := range recs {
		s.installCommitted(owner, rec, clsn)
		if s.dir != "" {
			s.ckptDirty[rec.OID] = rec.Class
		}
	}
	s.mu.Unlock()
	for i, rec := range recs {
		// A write set is usually one class: bump each run of one class
		// once.
		if i == 0 || recs[i-1].Class != rec.Class {
			s.bumpSeq(rec.Class)
		}
	}
}

// maybeKickCheckpoint starts a background checkpoint when the WAL has
// grown past the configured byte threshold since the last one. At most
// one background checkpoint runs at a time, and none may start once
// Close has begun.
func (s *Store) maybeKickCheckpoint() {
	if s.ckptAfterBytes == 0 || s.log == nil {
		return
	}
	if uint64(s.log.End())-s.lastCkptEnd.Load() < s.ckptAfterBytes {
		return
	}
	s.bgMu.Lock()
	if s.closing || s.bgRunning {
		s.bgMu.Unlock()
		return
	}
	s.bgRunning = true
	s.bgWG.Add(1)
	s.bgMu.Unlock()
	go func() {
		defer s.bgWG.Done()
		_, err := s.Checkpoint()
		s.bgMu.Lock()
		s.bgRunning = false
		s.bgMu.Unlock()
		if err != nil && s.onAsyncErr != nil {
			s.onAsyncErr(fmt.Errorf("storage: size-triggered checkpoint: %w", err))
		}
	}()
}

// installCommitted pushes rec as the newest committed version of its
// object, stamped with commit LSN clsn (dropping owner's uncommitted
// copy, which is what is being committed), and maintains the class's
// extent and indexes. Old versions stay linked beneath the new head
// for snapshot readers; the version GC unlinks them (and removes
// their index entries) once no live snapshot can reach them. During
// recovery (s.loading) the owner is committedOwner, there is no
// history to preserve, and the head is replaced outright. Caller
// holds s.mu. The class modification counter is bumped by the caller
// (after its writer section) — see Put for the ordering argument.
func (s *Store) installCommitted(owner lock.TxnID, rec Object, clsn uint64) {
	if s.loading {
		if rec.Deleted {
			s.objects.Delete(rec.OID)
			s.extentDel(rec.Class, rec.OID)
			return
		}
		e := s.entryLocked(rec.OID)
		nv := &mvVersion{lsn: clsn, rec: rec}
		nv.depth.Store(1)
		e.head.Store(nv)
		s.extentAdd(rec.Class, rec.OID, e)
		return
	}
	e := s.entryLocked(rec.OID)
	if owner != committedOwner {
		e.umu.Lock()
		e.dropOwner(owner)
		e.umu.Unlock()
	}
	old := e.head.Load()
	nv := &mvVersion{lsn: clsn, rec: rec}
	depth := uint32(1)
	if old != nil {
		nv.prev.Store(old)
		depth = old.depth.Load() + 1
	}
	nv.depth.Store(depth)
	// The head store is the publication point for this version: the
	// store has owned the record since Put and nothing writes it, so a
	// lock-free reader that loads the new head sees it fully built.
	// (Visibility to *snapshots* additionally waits for the commit
	// LSN to publish — see CommitTop.)
	e.head.Store(nv)
	s.obsm.ObserveN(obs.HVersionChain, uint64(depth))
	if !rec.Deleted {
		s.indexInsert(rec, old)
		s.extentAdd(rec.Class, rec.OID, e)
	}
	if old != nil || rec.Deleted {
		// Inline trim: with no snapshot registered anywhere, versions
		// below the one the published frontier resolves to are
		// already unreachable — cut them (and their index entries)
		// now rather than letting a hot chain grow until the next
		// background sweep pins a pile of dead rows in the heap.
		// Safe against racing registrations because AcquireSnapshot
		// bumps the live count before reading published: a count of 0
		// here means any registration we missed pins an LSN at or
		// above the watermark this cut uses.
		if s.snapsLive.Load() == 0 {
			var r GCResult
			done := s.gcChain(rec.OID, s.published.Load(), &r)
			if r.Reclaimed > 0 {
				s.nGCReclaimed.Add(uint64(r.Reclaimed))
			}
			if done {
				return
			}
		}
		s.gcCand[rec.OID] = struct{}{}
	}
}

// AbortTxn discards tx's versions.
func (s *Store) AbortTxn(tx lock.TxnID) {
	oids := s.takeDirty(tx)
	if len(oids) == 0 {
		return
	}
	classes := map[string]struct{}{}
	s.mu.Lock()
	for _, oid := range oids {
		e := s.entry(oid)
		if e == nil {
			continue
		}
		e.umu.Lock()
		dropped, _ := e.dropOwner(tx)
		class := dropped.rec.Class
		empty := len(e.unc) == 0 && e.head.Load() == nil
		e.umu.Unlock()
		if empty {
			// Never committed and no other writer: drop the entry.
			s.objects.Delete(oid)
			if class != "" {
				s.extentDel(class, oid)
			}
		}
		if class != "" {
			classes[class] = struct{}{}
		}
	}
	s.mu.Unlock()
	for class := range classes {
		s.bumpSeq(class)
	}
}

// indexInsert files rec under every index of its class. An index on
// which rec keeps the key of prev, the version it supersedes, already
// holds the entry (the GC keeps every key a version on the chain
// carries), so a write that leaves the indexed attributes alone takes
// no index lock. Caller holds s.mu.
func (s *Store) indexInsert(rec Object, prev *mvVersion) {
	for attr, ix := range (*s.indexes.Load())[rec.Class] {
		v, ok := rec.Row.Get(attr)
		if !ok {
			continue
		}
		key := v.Key()
		if prev != nil && !prev.rec.Deleted && prev.rec.Class == rec.Class {
			if pv, ok := prev.rec.Row.Get(attr); ok && pv.Key() == key {
				continue
			}
		}
		ix.mu.Lock()
		ix.t.Insert(key, rec.OID)
		ix.mu.Unlock()
	}
}

// --- redo log records and snapshot ---

// encodeRedo writes a commit's versions as one redo record, each row in
// datum.EncodeMap's format.
func encodeRedo(recs []Object) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(recs)))
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, uint64(r.OID))
		buf = binary.AppendUvarint(buf, uint64(len(r.Class)))
		buf = append(buf, r.Class...)
		if r.Deleted {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = datum.AppendRow(buf, r.Row)
	}
	return buf
}

func decodeRedo(payload []byte) ([]Object, error) {
	cnt, n := binary.Uvarint(payload)
	// Each record takes several bytes, so a count beyond the remaining
	// input is corrupt — reject before allocating.
	if n <= 0 || cnt > uint64(len(payload)-n) {
		return nil, errors.New("storage: bad redo header")
	}
	recs := make([]Object, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		oid, m := binary.Uvarint(payload[n:])
		if m <= 0 {
			return nil, errors.New("storage: bad redo oid")
		}
		n += m
		clen, m := binary.Uvarint(payload[n:])
		// Compare in uint64 so a huge length cannot wrap int and slip
		// past the bounds check; >= keeps one byte for the tombstone
		// flag.
		if m <= 0 || clen >= uint64(len(payload)-n-m) {
			return nil, errors.New("storage: bad redo class")
		}
		n += m
		class := string(payload[n : n+int(clen)])
		n += int(clen)
		deleted := payload[n] == 1
		n++
		row, m, err := datum.DecodeRow(payload[n:])
		if err != nil {
			return nil, fmt.Errorf("storage: redo attrs: %w", err)
		}
		n += m
		recs = append(recs, Object{OID: datum.OID(oid), Class: class, Row: row, Deleted: deleted})
	}
	return recs, nil
}

// WAL exposes the store's write-ahead log (nil for an ephemeral
// store). The replication primary streams durable frames straight
// from it.
func (s *Store) WAL() *wal.Log { return s.log }

// Dir returns the store's durability directory ("" for ephemeral).
// The replication primary ships the snapshot-chain files in it to
// bootstrapping followers.
func (s *Store) Dir() string { return s.dir }

// ApplyReplicated logs and installs one replicated redo batch on a
// follower store. payload is the primary's WAL record verbatim and
// primaryLSN its LSN there; batches must be applied in stream order.
// The follower's store started its log at the shipped chain's
// watermark, an LSN of the primary's log (see Open), so the append
// must land at exactly primaryLSN — the logical LSNs of primary and
// follower line up byte for byte, which makes the follower's log end
// its durable applied-LSN frontier and lets recovery after a follower
// crash resume the stream from there.
//
// The batch follows CommitTop's write-ahead discipline: append and
// register in-flight under cmu, group-sync, then install and publish.
// A follower checkpoint interleaving anywhere in between therefore
// keeps the watermark invariant, so followers truncate their own logs
// safely. Returns the new applied frontier (the follower's log end).
func (s *Store) ApplyReplicated(primaryLSN wal.LSN, payload []byte) (wal.LSN, error) {
	if s.log == nil {
		return 0, errors.New("storage: replica apply needs a durable store")
	}
	recs, err := decodeRedo(payload)
	if err != nil {
		return 0, err
	}
	s.cmu.Lock()
	if end := s.log.End(); end != primaryLSN {
		s.cmu.Unlock()
		return 0, fmt.Errorf("storage: replica apply at lsn %d, local log end %d", primaryLSN, end)
	}
	lsn, err := s.log.Append(payload)
	if err != nil {
		s.cmu.Unlock()
		return 0, err
	}
	s.inflight[lsn] = struct{}{}
	clsn := s.beginCommitLocked()
	s.cmu.Unlock()
	failpoint.Hit("repl.midApply")
	end := lsn + wal.LSN(frameOverheadBytes+len(payload))
	if err := s.log.SyncTo(end); err != nil {
		s.cmu.Lock()
		delete(s.inflight, lsn)
		s.endCommitLocked(clsn)
		s.cmu.Unlock()
		return 0, err
	}
	s.nWALBytes.Add(uint64(len(payload)))
	failpoint.Hit("repl.beforeInstall")
	for _, rec := range recs {
		s.raiseNextOID(rec.OID)
	}
	s.installAll(committedOwner, recs, clsn)
	s.nCommits.Add(1)
	s.cmu.Lock()
	delete(s.inflight, lsn)
	s.endCommitLocked(clsn)
	s.cmu.Unlock()
	s.waitPublished(clsn)
	failpoint.Hit("repl.afterInstall")
	s.maybeKickCheckpoint()
	s.maybeKickGC()
	return end, nil
}

// applyRedo applies one WAL record during recovery. Each redo batch
// was one commit, so it gets one fresh commit LSN (recovery is
// single-threaded; endCommit publishes it immediately).
func (s *Store) applyRedo(payload []byte) error {
	recs, err := decodeRedo(payload)
	if err != nil {
		return err
	}
	s.cmu.Lock()
	clsn := s.beginCommitLocked()
	s.cmu.Unlock()
	for _, rec := range recs {
		s.raiseNextOID(rec.OID)
	}
	// Replayed records are newer than the on-disk chain (their LSNs are
	// at or above its watermark): installAll marks them for the next
	// delta like any live commit.
	s.installAll(committedOwner, recs, clsn)
	s.endCommit(clsn)
	return nil
}

// CheckpointResult describes one completed checkpoint.
type CheckpointResult struct {
	// Kind is "full" (whole committed tier, chain compacted) or
	// "delta" (only the OIDs dirtied since the last checkpoint).
	Kind string `json:"kind"`
	// Records is the number of records written to the chain element.
	Records int `json:"records"`
	// Reclaimed is the number of WAL bytes truncated away.
	Reclaimed uint64 `json:"reclaimed"`
}

// Checkpoint performs one fuzzy (non-quiescent) checkpoint. It is
// incremental and demand-driven: when a full snapshot already exists
// and compaction is not yet due, it writes a *delta* snapshot holding
// only the records committed since the last checkpoint — O(dirty),
// not O(store) — chained to its parent by the parent's watermark LSN
// and CRC. When compaction is due (see compactDueLocked), on the first
// checkpoint of a directory, or via Compact, it rewrites a full
// snapshot and drops the chain. Either way it then truncates the WAL
// prefix the chain covers.
//
// Commits proceed concurrently: the capture holds the writer mutex only
// to swap the dirty set, then reads chain heads lock-free, so it never
// stops the world, and the WAL keeps accepting appends except during
// the (short) suffix copy inside TruncateBefore.
//
// The watermark invariant makes this safe: every committed record is
// either in the chain or at LSN >= watermark. The watermark is the
// smallest in-flight LSN (appended but not yet installed), or the log
// end if none. A commit whose LSN is below the watermark had been
// deregistered — which happens only after its install — by the time
// the watermark was read under cmu, so the capture that follows sees
// its versions; a commit at or above the watermark survives
// TruncateBefore(watermark) and is replayed over the chain on
// recovery, even if the capture saw only part of it.
func (s *Store) Checkpoint() (CheckpointResult, error) {
	return s.checkpoint(false)
}

// Compact forces the next checkpoint to be full: it rewrites the
// whole committed tier as a fresh snapshot and drops the delta chain.
func (s *Store) Compact() (CheckpointResult, error) {
	return s.checkpoint(true)
}

// compactDueLocked reports whether the next checkpoint must rewrite a
// full snapshot instead of extending the chain: once the cumulative
// delta bytes reach 1/compactFraction of the full snapshot's size, so
// a chain never costs recovery more than a bounded multiple of a fresh
// snapshot read. Caller holds ckptMu.
func (s *Store) compactDueLocked() bool {
	return s.deltaBytes*compactFraction >= s.fullBytes
}

func (s *Store) checkpoint(forceFull bool) (CheckpointResult, error) {
	if s.dir == "" {
		return CheckpointResult{}, nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	tm := s.obsm.Timer(obs.HCheckpoint)

	full := forceFull || !s.haveFull || s.compactDueLocked()

	var watermark wal.LSN
	if s.log != nil {
		watermark = s.log.End()
		s.cmu.Lock()
		for lsn := range s.inflight {
			if lsn < watermark {
				watermark = lsn
			}
		}
		s.cmu.Unlock()
	}
	// Cut the dirty set, then capture lock-free. An install that took
	// the writer mutex before the swap has its version in the heap (and
	// the capture below reads it or a newer one); one after the swap
	// leaves its mark in the fresh set, so the next delta carries it
	// whether or not this capture saw it. The capture reads each
	// chain's newest installed head — published or not. An unpublished
	// head's WAL record is already durable (write-ahead) and its LSN is
	// still in flight, so it is at or above the watermark either way. On
	// any failure below the stolen set is merged back — losing a mark
	// would silently drop its record from every future delta.
	s.mu.Lock()
	taken := s.ckptDirty
	s.ckptDirty = make(map[datum.OID]string, 8)
	s.mu.Unlock()
	var recs []Object
	if full {
		s.objects.Range(func(_, v any) bool {
			failpoint.Hit("storage.midFullCapture")
			if hv := v.(*mvEntry).head.Load(); hv != nil && !hv.rec.Deleted {
				recs = append(recs, hv.rec)
			}
			return true
		})
	} else {
		for oid, class := range taken {
			// Deleted since the last checkpoint (or gone with its chain):
			// the delta must carry the tombstone or recovery would
			// resurrect the object from an older chain element.
			rec := Object{OID: oid, Class: class, Deleted: true}
			if e := s.entry(oid); e != nil {
				if hv := e.head.Load(); hv != nil && !hv.rec.Deleted {
					rec = hv.rec
				}
			}
			recs = append(recs, rec)
		}
	}
	// An empty delta at an unmoved watermark would extend the chain
	// with nothing; skip the file but still attempt the truncate (a
	// prior crash between rename and truncate leaves covered prefix
	// to reclaim).
	writeFile := full || len(recs) > 0 || watermark != s.chainWatermark
	// Safe to read after the scans: any captured record's OID was
	// allocated before its commit installed, and recovery raises the
	// allocator past every replayed record anyway.
	nextOID := datum.OID(s.nextOID.Load())
	sort.Slice(recs, func(i, j int) bool { return recs[i].OID < recs[j].OID })

	restoreDirty := func() {
		s.mu.Lock()
		for oid, class := range taken {
			if _, ok := s.ckptDirty[oid]; !ok {
				s.ckptDirty[oid] = class
			}
		}
		s.mu.Unlock()
	}

	res := CheckpointResult{Kind: "delta", Records: len(recs)}
	if full {
		res.Kind = "full"
	}
	if writeFile {
		// Every chain element (delta included) carries the *global*
		// per-class cardinalities as of the cut — recovery seeds planner
		// statistics from the newest element, so cold-start plans cost
		// with real extents before any live counter moves.
		sn := &snapshot{watermark: watermark, nextOID: nextOID, recs: recs, cards: s.classCards()}
		if full {
			sn.kind = snapKindFull
			nbytes, err := s.writeSnapshotFile(sn, fullSnapshotName, fullSnapshotName+".tmp",
				"storage.midSnapshot", "storage.afterRename")
			if err != nil {
				restoreDirty()
				return res, err
			}
			s.fullBytes = uint64(nbytes)
			s.deltaBytes = 0
			// Compaction: the full snapshot subsumes the chain, so the
			// delta files are dead weight. Stale elements surviving a
			// crash here (or a failed remove) are harmless — their
			// parent link no longer matches the new snapshot, so
			// recovery ignores them, and future deltas overwrite them
			// by rename as the sequence numbers restart.
			failpoint.Hit("storage.midCompaction")
			if names, _, err := deltaFiles(s.dir); err == nil {
				for _, name := range names {
					os.Remove(filepath.Join(s.dir, name))
				}
			}
			s.haveFull = true
			s.deltaSeq = 0
			s.nFullCkpts.Add(1)
		} else {
			sn.kind = snapKindDelta
			sn.parentWatermark = s.chainWatermark
			sn.parentCRC = s.chainCRC
			nbytes, err := s.writeSnapshotFile(sn, deltaName(s.deltaSeq+1), "delta.tmp",
				"storage.midDelta", "storage.afterDeltaRename")
			if err != nil {
				restoreDirty()
				return res, err
			}
			s.deltaBytes += uint64(nbytes)
			s.deltaSeq++
			s.nDeltaCkpts.Add(1)
			s.obsm.ObserveN(obs.HDeltaRecords, uint64(len(recs)))
		}
		s.chainWatermark, s.chainCRC = watermark, sn.crc
	}

	failpoint.Hit("storage.beforeTruncate")
	if s.log != nil {
		// Only after the chain element is durably in place may the
		// covered prefix be dropped; crashing before this line
		// recovers from the extended chain plus the untruncated log.
		reclaimed, err := s.log.TruncateBefore(watermark)
		if err != nil {
			return res, err
		}
		res.Reclaimed = reclaimed
		s.lastCkptEnd.Store(uint64(s.log.End()))
	}
	if writeFile || res.Reclaimed > 0 {
		s.nCheckpoints.Add(1)
		s.nWALReclaimed.Add(res.Reclaimed)
		s.obsm.ObserveN(obs.HWALReclaimed, res.Reclaimed)
	}
	tm.Done()
	return res, nil
}
