package object

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/query"
)

// TestSnapshotReaderConsistentMidScan: a pinned SnapshotReader
// observes one commit LSN for its whole lifetime — a commit landing
// in the middle of its scan is invisible to the rest of the scan and
// to later Fetches through the same reader. This is the as-of-commit
// view deferred-coupling condition evaluation relies on.
func TestSnapshotReaderConsistentMidScan(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)

	const n = 16
	var oids []datum.OID
	setupTx := tm.Begin()
	for i := 0; i < n; i++ {
		oid, err := m.Create(setupTx, "Stock", map[string]datum.Value{
			"symbol": datum.Str("S"), "volume": datum.Int(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := setupTx.Commit(); err != nil {
		t.Fatal(err)
	}

	rtx := tm.Begin()
	defer rtx.Commit()
	reader := m.SnapshotReader(rtx)
	defer reader.Close()

	rows := 0
	err := reader.ScanClass("Stock", func(_ datum.OID, row datum.Row) bool {
		if rows == 0 {
			// Mid-scan, another transaction flips every object and
			// commits. The pinned reader must not see any of it.
			wtx := tm.Begin()
			for _, oid := range oids {
				if err := m.Modify(wtx, oid, map[string]datum.Value{"volume": datum.Int(1)}); err != nil {
					t.Errorf("mid-scan modify: %v", err)
				}
			}
			if err := wtx.Commit(); err != nil {
				t.Errorf("mid-scan commit: %v", err)
			}
		}
		if got := attr(row, "volume").AsInt(); got != 0 {
			t.Fatalf("row %d: pinned scan saw mid-scan commit (volume=%d)", rows, got)
		}
		rows++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("scan saw %d rows, want %d", rows, n)
	}
	// Fetch through the pinned reader stays at the snapshot too.
	if _, row, ok := reader.Fetch(oids[0]); !ok || attr(row, "volume").AsInt() != 0 {
		t.Fatalf("pinned Fetch = %v %v, want volume=0", row.Map(), ok)
	}
	// A fresh (unpinned) reader sees the new state.
	fresh := m.Reader(rtx)
	if _, row, ok := fresh.Fetch(oids[0]); !ok || attr(row, "volume").AsInt() != 1 {
		t.Fatalf("fresh Fetch = %v %v, want volume=1", row.Map(), ok)
	}
}

// TestFetchSharesTheStoredVersion: the query path borrows versions —
// Fetch of a committed object allocates nothing and hands out the row
// the store holds — while Get, where a record leaves the engine, returns
// a map the caller may write.
func TestFetchSharesTheStoredVersion(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	oid, err := m.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX"), "volume": datum.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rtx := tm.Begin()
	defer rtx.Commit()
	for name, r := range map[string]query.Reader{"reader": m.Reader(rtx), "snapshot reader": m.SnapshotReader(rtx)} {
		if n := testing.AllocsPerRun(100, func() { r.Fetch(oid) }); n != 0 {
			t.Errorf("%s: Fetch of a committed object allocates %v times, want 0", name, n)
		}
	}
	rec, err := m.Get(rtx, oid)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attrs["volume"] = datum.Int(-1)
	delete(rec.Attrs, "symbol")
	if _, row, ok := m.Reader(rtx).Fetch(oid); !ok || attr(row, "volume").AsInt() != 7 || attr(row, "symbol").AsString() != "XRX" {
		t.Fatalf("writing Get's result changed what Fetch reads: %v", row.Map())
	}
}

// attr returns row's named attribute, null if absent.
func attr(row datum.Row, name string) datum.Value {
	v, _ := row.Get(name)
	return v
}
