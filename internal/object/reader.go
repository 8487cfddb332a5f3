package object

import (
	"repro/internal/btree"
	"repro/internal/datum"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Reader returns a query.Reader bound to tx. Committed data is read
// through the store's MVCC path — no shared locks, no store mutex:
// each ScanClass pins its own snapshot LSN for the duration of the
// scan, and Fetch reads at the latest published commit. tx's own
// uncommitted writes are always visible. Rows are the stored versions,
// handed out by reference (query.Reader's contract); only Manager.Get
// copies, into a map. For a reader whose *every*
// read must observe one consistent snapshot (condition evaluation,
// multi-query requests), use SnapshotReader.
func (m *Manager) Reader(tx *txn.Txn) query.Reader {
	return &txnReader{m: m, tx: tx}
}

// SnapshotReader returns a query.Reader pinned to a single snapshot
// LSN taken now: every Fetch and ScanClass through it resolves
// against the same committed state, so concurrent commits are
// invisible for the reader's whole lifetime (the as-of-commit view
// deferred-coupling condition evaluation requires). The pin holds the
// version GC back; callers must Close it.
func (m *Manager) SnapshotReader(tx *txn.Txn) *SnapshotReader {
	return &SnapshotReader{
		txnReader: txnReader{m: m, tx: tx, snap: m.store.AcquireSnapshot()},
	}
}

// SnapshotReader is a query.Reader whose reads all resolve at one
// pinned snapshot LSN. See Manager.SnapshotReader.
type SnapshotReader struct {
	txnReader
}

// SnapshotLSN returns the pinned commit LSN.
func (r *SnapshotReader) SnapshotLSN() uint64 { return r.snap.LSN() }

// Close releases the snapshot pin. Idempotent.
func (r *SnapshotReader) Close() { r.snap.Release() }

type txnReader struct {
	m  *Manager
	tx *txn.Txn
	// snap, when non-nil, pins every read to one snapshot LSN;
	// when nil each read resolves at the newest published commit.
	snap *storage.Snapshot
}

// ScanClass visits every live object of the class in OID order
// against a consistent snapshot (the reader's pin, or one acquired
// for this scan). No locks are taken — long scans never block
// committers — so the scan is a point-in-time view, not a
// serializable read: rows committed after the snapshot are missed by
// design.
func (r *txnReader) ScanClass(class string, fn func(datum.OID, datum.Row) bool) error {
	scan := func(rec storage.Object) bool { return fn(rec.OID, rec.Row) }
	if r.snap != nil {
		r.m.store.ScanClassAt(r.tx.ID(), class, r.snap.LSN(), scan)
	} else {
		r.m.store.ScanClass(r.tx.ID(), class, scan)
	}
	return nil
}

// LookupRange probes a secondary index for candidates. Candidates are
// returned unverified; the evaluator fetches each via Fetch and
// re-checks the predicate against the snapshot-visible record, so
// false positives (including entries for older, not yet
// garbage-collected versions) are harmless.
func (r *txnReader) LookupRange(class, attr string, lo, hi *datum.Value, loInc, hiInc bool) ([]datum.OID, bool) {
	if !r.m.store.HasIndex(class, attr) {
		return nil, false
	}
	loB, hiB := btree.Open(), btree.Open()
	if lo != nil {
		if loInc {
			loB = btree.Include(lo.Key())
		} else {
			loB = btree.Exclude(lo.Key())
		}
	}
	if hi != nil {
		if hiInc {
			hiB = btree.Include(hi.Key())
		} else {
			hiB = btree.Exclude(hi.Key())
		}
	}
	return r.m.store.IndexCandidates(r.tx.ID(), class, attr, loB, hiB), true
}

// The methods below make every reader a plan.Catalog: the physical
// planner draws its statistics from the same reader it executes
// against. Estimates read current store state, not the reader's
// snapshot — they only rank plans, never decide membership.

// ExtentEstimate approximates the class's extent cardinality.
func (r *txnReader) ExtentEstimate(class string) int {
	return r.m.store.ExtentEstimate(class)
}

// HasIndex reports whether class.attr has a secondary index.
func (r *txnReader) HasIndex(class, attr string) bool {
	return r.m.store.HasIndex(class, attr)
}

// IndexEstimate counts index entries in [lo, hi] on class.attr,
// stopping at limit; ok is false when no index exists.
func (r *txnReader) IndexEstimate(class, attr string, lo, hi *datum.Value, loInc, hiInc bool, limit int) (int, bool) {
	loB, hiB := btree.Open(), btree.Open()
	if lo != nil {
		if loInc {
			loB = btree.Include(lo.Key())
		} else {
			loB = btree.Exclude(lo.Key())
		}
	}
	if hi != nil {
		if hiInc {
			hiB = btree.Include(hi.Key())
		} else {
			hiB = btree.Exclude(hi.Key())
		}
	}
	return r.m.store.IndexEstimate(class, attr, loB, hiB, limit)
}

// The methods below make every reader a plan.RangeScanner, the
// parallel executor's fan-out surface: workers walk OID ranges of a
// class extent, all pinned at one snapshot LSN, so the union of the
// range scans is exactly what ScanClass at that LSN would visit.

// PinRanges returns the snapshot LSN every range worker must scan at,
// the store's cut of class's extent into at most n ranges, and a
// release for the pin behind the LSN. A pinned reader hands out its own
// immobile LSN (release is a no-op — the reader's pin outlives the
// scan); an unpinned reader acquires a pin for the scan's duration so
// version GC cannot reclaim rows mid-fan-out.
func (r *txnReader) PinRanges(class string, n int) (uint64, []datum.OID, func()) {
	cuts := r.m.store.ExtentCuts(class, n)
	if r.snap != nil {
		return r.snap.LSN(), cuts, func() {}
	}
	snap := r.m.store.AcquireSnapshot()
	return snap.LSN(), cuts, snap.Release
}

// ScanClassRange visits the class's live objects with lo <= OID < hi
// (hi 0: unbounded), in OID order, at the given snapshot LSN. tx's own
// uncommitted writes are visible, matching ScanClass.
func (r *txnReader) ScanClassRange(class string, lo, hi datum.OID, lsn uint64, fn func(datum.OID, datum.Row) bool) error {
	r.m.store.ScanClassRangeAt(r.tx.ID(), class, lo, hi, lsn, func(rec storage.Object) bool {
		return fn(rec.OID, rec.Row)
	})
	return nil
}

// Fetch returns a live object by OID — lock-free, at the reader's
// snapshot (or the newest published commit when unpinned).
func (r *txnReader) Fetch(oid datum.OID) (string, datum.Row, bool) {
	var rec storage.Object
	var ok bool
	if r.snap != nil {
		rec, ok = r.m.store.GetAt(r.tx.ID(), oid, r.snap.LSN())
	} else {
		rec, ok = r.m.store.Get(r.tx.ID(), oid)
	}
	if !ok {
		return "", datum.Row{}, false
	}
	return rec.Class, rec.Row, true
}
