package core

// The safety net for the zero-copy read path: stored versions are
// handed out by reference, so nothing in the engine may ever write one,
// and nothing an application receives may alias one.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/repl"
	"repro/internal/rule"
	"repro/internal/storage"
)

// versionLedger remembers every stored row it has been shown — the row
// itself, which is what the read path hands out — beside its encoding
// taken at first sight. Rows are keyed by identity, so two versions
// with the same attributes are two entries.
type versionLedger struct {
	seen map[uintptr]ledgerEntry
}

type ledgerEntry struct {
	rec  storage.Object // Row is the store's
	copy []byte
}

func (l *versionLedger) note(rec storage.Object) {
	if rec.Row.Len() == 0 {
		return
	}
	// A Row is one pointer to its cells: that pointer is its identity.
	key := reflect.ValueOf(rec.Row).Field(0).Pointer()
	if _, ok := l.seen[key]; !ok {
		l.seen[key] = ledgerEntry{rec: rec, copy: datum.AppendRow(nil, rec.Row)}
	}
}

// sweep notes every version of the classes visible to tx (0: the
// committed tier at the newest snapshot).
func (l *versionLedger) sweep(e *Engine, tx lock.TxnID, classes ...string) {
	for _, class := range classes {
		e.Store.ScanClass(tx, class, func(rec storage.Object) bool {
			l.note(rec)
			return true
		})
	}
}

func (l *versionLedger) verify(t *testing.T) {
	t.Helper()
	for _, en := range l.seen {
		if now := datum.AppendRow(nil, en.rec.Row); !bytes.Equal(now, en.copy) {
			t.Errorf("stored version of %s %v was written after it was shared:\n was %x\n now %x",
				en.rec.Class, en.rec.OID, en.copy, now)
		}
	}
}

// TestSharedRecordsAreNeverMutated copies every version the store ever
// holds during a run that exercises each consumer of shared maps —
// rule firings in all nine coupling modes (conditions are planned
// joins, actions create rows from event arguments), Modify, Delete,
// aborts, planned queries inside and outside transactions, the rule and
// class catalogs, full and delta checkpoints, a replica bootstrapping
// from and tailing the primary — and then compares each version with
// its copy.
func TestSharedRecordsAreNeverMutated(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defineStockAndAudit(t, e)
	var stocks []datum.OID
	for i := 0; i < 24; i++ {
		stocks = append(stocks, createStock(t, e, fmt.Sprintf("S%02d", i), float64(40+i)))
	}
	for _, ec := range []string{"immediate", "deferred", "separate"} {
		for _, ca := range []string{"immediate", "deferred", "separate"} {
			def := auditRule(ec+"-"+ca, ec, ca)
			def.Condition = []string{
				"select s.symbol from Stock s where s.price = event.new_price and s.price >= 40",
			}
			if _, err := e.CreateRule(def); err != nil {
				t.Fatal(err)
			}
		}
	}
	classes := []string{"Stock", "Audit", object.MetaClass, rule.RuleClass, EventClass}
	ledger := &versionLedger{seen: map[uintptr]ledgerEntry{}}
	ledger.sweep(e, 0, classes...)
	shapesBefore := e.Stats().Store.Shapes

	queries := []string{
		"select s.symbol, s.price from Stock s where s.price >= 45 order by s.price desc limit 7",
		"select count(*) as n, sum(a.price) as total from Audit a, Stock s where a.price = s.price",
		"select s, a from Stock s, Audit a where s.price = a.price and s.symbol = 'S03'",
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 40; round++ {
		tx := e.Begin()
		oid := stocks[rng.Intn(len(stocks))]
		switch {
		case round%7 == 6:
			if err := e.Delete(tx, oid); err != nil {
				t.Fatal(err)
			}
		default:
			if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(float64(40 + rng.Intn(30)))}); err != nil {
				t.Fatal(err)
			}
		}
		// The transaction's own uncommitted versions are shared too.
		ledger.sweep(e, tx.ID(), classes...)
		if _, err := e.Query(tx, queries[round%len(queries)], nil); err != nil {
			t.Fatal(err)
		}
		if round%5 == 4 || round%7 == 6 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e.Quiesce()
		ledger.sweep(e, 0, classes...)
		if round == 15 || round == 30 {
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, err := range e.AsyncErrors() {
		t.Errorf("asynchronous firing: %v", err)
	}
	if n := auditCount(t, e); n < 40 {
		t.Fatalf("only %d audit rows: the rules did not fire in every coupling mode", n)
	}

	// A replica bootstraps from the checkpoint chain and tails the WAL.
	prim := repl.NewPrimary(e.Store, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go prim.Serve(ln)
	defer prim.Close()
	rep, err := repl.Open(repl.Options{Dir: t.TempDir(), PrimaryAddr: ln.Addr().String(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	tx := e.Begin()
	if err := e.Modify(tx, stocks[0], map[string]datum.Value{"price": datum.Float(77)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Quiesce()
	if !rep.WaitApplied(e.Store.WAL().End(), 10*time.Second) {
		t.Fatalf("replica never caught up: %+v", rep.Status())
	}
	got, err := rep.Get(stocks[0])
	if err != nil || got.Attrs["price"].AsFloat() != 77 {
		t.Fatalf("replica read %v, %v; want price 77", got, err)
	}
	if _, err := e.Store.Compact(); err != nil {
		t.Fatal(err)
	}
	ledger.sweep(e, 0, classes...)

	if len(ledger.seen) < 100 {
		t.Fatalf("ledger saw only %d versions; the run did not exercise the store", len(ledger.seen))
	}
	ledger.verify(t)

	// Versions share their shapes: hundreds of versions of these few
	// attribute sets add a handful at most, and both the engine and the
	// replica export the count.
	if grew := e.Stats().Store.Shapes - shapesBefore; grew > 8 {
		t.Errorf("Stats.Shapes grew by %d over %d versions", grew, len(ledger.seen))
	}
	for name, write := range map[string]func(io.Writer) error{"engine": e.WritePrometheus, "replica": rep.WritePrometheus} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "\nhipac_store_shapes ") {
			t.Errorf("%s: hipac_store_shapes missing from the Prometheus output", name)
		}
	}
}

// TestGettersReturnPrivateCopies: what Engine.Get and GetForUpdate
// return belongs to the caller — writing it changes nothing a later
// read, a query or a rule sees.
func TestGettersReturnPrivateCopies(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	getters := map[string]func(*Engine) (storage.Record, error){
		"Get": func(e *Engine) (storage.Record, error) {
			tx := e.Begin()
			defer tx.Commit()
			return e.Get(tx, oid)
		},
		"GetForUpdate": func(e *Engine) (storage.Record, error) {
			tx := e.Begin()
			defer tx.Commit()
			return e.GetForUpdate(tx, oid)
		},
		"Get of own write": func(e *Engine) (storage.Record, error) {
			tx := e.Begin()
			defer tx.Abort()
			if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(48)}); err != nil {
				return storage.Record{}, err
			}
			rec, err := e.Get(tx, oid)
			if err == nil {
				rec.Attrs["price"] = datum.Float(-1)
				delete(rec.Attrs, "symbol")
				rec, err = e.Get(tx, oid)
			}
			if err == nil && (rec.Attrs["price"].AsFloat() != 48 || rec.Attrs["symbol"].AsString() != "XRX") {
				err = fmt.Errorf("own uncommitted version changed under the caller's write: %v", rec.Attrs)
			}
			return rec, err
		},
	}
	for name, get := range getters {
		rec, err := get(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec.Attrs["price"] = datum.Float(-1)
		delete(rec.Attrs, "symbol")
		rec.Attrs["bogus"] = datum.Int(1)

		stored, ok := e.Store.Get(0, oid)
		if attrs := stored.Record().Attrs; !ok || attrs["price"].AsFloat() != 48 || attrs["symbol"].AsString() != "XRX" || len(attrs) != 2 {
			t.Fatalf("%s: writing the returned map changed the stored version: %v", name, attrs)
		}
	}
	tx := e.Begin()
	defer tx.Commit()
	res, err := e.Query(tx, "select s.symbol from Stock s where s.price = 48", nil)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "XRX" {
		t.Fatalf("query after the writes: %v, %v", res, err)
	}
}
