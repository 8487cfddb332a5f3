package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/datum"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/rule"
	"repro/internal/storage"
	"repro/internal/txn"
)

var epoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// newEngine returns an in-memory engine on a virtual clock.
func newEngine(t *testing.T) (*Engine, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	e, err := Open(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, clk
}

var stockClass = object.Class{
	Name: "Stock",
	Attrs: []object.AttrDef{
		{Name: "symbol", Kind: datum.KindString, Required: true},
		{Name: "price", Kind: datum.KindFloat, Indexed: true},
	},
}

var auditClass = object.Class{
	Name: "Audit",
	Attrs: []object.AttrDef{
		{Name: "note", Kind: datum.KindString},
		{Name: "price", Kind: datum.KindFloat},
	},
}

func defineStockAndAudit(t *testing.T, e *Engine) {
	t.Helper()
	tx := e.Begin()
	if err := e.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineClass(tx, auditClass); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func createStock(t *testing.T, e *Engine, sym string, price float64) datum.OID {
	t.Helper()
	tx := e.Begin()
	oid, err := e.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str(sym), "price": datum.Float(price),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return oid
}

// auditCount counts Audit rows in a fresh transaction.
func auditCount(t *testing.T, e *Engine) int {
	t.Helper()
	tx := e.Begin()
	defer tx.Commit()
	return auditCountIn(t, e, tx)
}

func auditCountIn(t *testing.T, e *Engine, tx *txn.Txn) int {
	t.Helper()
	res, err := e.Query(tx, "select count(*) as n from Audit a", nil)
	if err != nil {
		t.Fatal(err)
	}
	return int(res.Rows[0][0].AsInt())
}

// auditVisibleTo counts Audit rows visible to a transaction WITHOUT
// taking locks (a raw storage scan). Lets tests observe isolation
// boundaries that a locking scan would simply block on.
func auditVisibleTo(e *Engine, tx *txn.Txn) int {
	n := 0
	var id lock.TxnID
	if tx != nil {
		id = tx.ID()
	}
	e.Store.ScanClass(id, "Audit", func(storage.Object) bool { n++; return true })
	return n
}

// auditRule returns a rule definition that appends an Audit row on
// Stock modifications, with the given coupling modes.
func auditRule(name, ec, ca string) rule.Def {
	return rule.Def{
		Name:  name,
		Event: "modify(Stock)",
		Action: []rule.Step{{
			Kind:  rule.StepCreate,
			Class: "Audit",
			Attrs: map[string]string{
				"note":  "'modified'",
				"price": "event.new_price",
			},
		}},
		EC: ec,
		CA: ca,
	}
}

func TestQuickstartRuleFires(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	if _, err := e.CreateRule(auditRule("audit", "immediate", "immediate")); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	// Immediate coupling: the effect exists inside the triggering
	// transaction as soon as the operation returns.
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatalf("audit rows inside trigger = %d, want 1", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := auditCount(t, e); got != 1 {
		t.Fatalf("audit rows after commit = %d", got)
	}
	// The audit row carries the event binding.
	check := e.Begin()
	defer check.Commit()
	res, err := e.Query(check, "select a.price from Audit a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsFloat() != 50 {
		t.Fatalf("audit price = %v", res.Rows[0][0])
	}
}

func TestCouplingMatrix(t *testing.T) {
	// All nine E-C x C-A combinations must execute the action in the
	// transaction the execution model prescribes (C1 in DESIGN.md).
	cases := []struct {
		ec, ca string
		// visibleInTrigger: the audit row is visible to the
		// triggering transaction right after the operation (own
		// subtransaction effects, or committed separate effects).
		visibleInTrigger bool
		// visibleBeforeCommit: visible OUTSIDE the trigger before it
		// commits — true only when a separate top-level firing
		// already committed the action.
		visibleBeforeCommit bool
	}{
		{"immediate", "immediate", true, false},
		{"immediate", "deferred", true, false},
		{"immediate", "separate", true, true}, // separate action committed
		{"deferred", "immediate", false, false},
		{"deferred", "deferred", false, false},
		{"deferred", "separate", false, false}, // action spawns at commit
		{"separate", "immediate", true, true},
		{"separate", "deferred", true, true},
		{"separate", "separate", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.ec+"/"+tc.ca, func(t *testing.T) {
			e, _ := newEngine(t)
			defineStockAndAudit(t, e)
			oid := createStock(t, e, "XRX", 48)
			if _, err := e.CreateRule(auditRule("audit", tc.ec, tc.ca)); err != nil {
				t.Fatal(err)
			}
			tx := e.Begin()
			if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
				t.Fatal(err)
			}
			if tc.ec == "separate" || tc.ca == "separate" {
				// Await asynchronous firings; they cannot need tx's
				// locks here (Audit is disjoint from the trigger).
				e.Quiesce()
			}
			// Raw-visibility checks (lock-free): a locking scan from
			// another transaction would rightly block on tx's locks.
			if got := auditVisibleTo(e, tx) == 1; got != tc.visibleInTrigger {
				t.Errorf("visible in trigger = %v, want %v", got, tc.visibleInTrigger)
			}
			if got := auditVisibleTo(e, nil) == 1; got != tc.visibleBeforeCommit {
				t.Errorf("visible before trigger commit = %v, want %v", got, tc.visibleBeforeCommit)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			e.Quiesce()
			if got := auditCount(t, e); got != 1 {
				t.Errorf("final audit rows = %d, want 1", got)
			}
		})
	}
}

func TestConditionFiltersFiring(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	def := auditRule("threshold", "immediate", "immediate")
	def.Condition = []string{"select s from Stock s where s.symbol = 'XRX' and event.new_price >= 50"}
	if _, err := e.CreateRule(def); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(49)})
	if got := auditCountIn(t, e, tx); got != 0 {
		t.Fatalf("rule fired below threshold: %d rows", got)
	}
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(51)})
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatalf("rule did not fire at threshold: %d rows", got)
	}
	tx.Commit()
}

func TestActionRunsPerPrimaryRow(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	for i := 0; i < 3; i++ {
		createStock(t, e, fmt.Sprintf("S%d", i), float64(100+i))
	}
	oid := createStock(t, e, "TRIGGER", 1)
	def := rule.Def{
		Name:      "fanout",
		Event:     "modify(Stock)",
		Condition: []string{"select s.symbol as sym, s.price as p from Stock s where s.price >= 100"},
		Action: []rule.Step{{
			Kind:  rule.StepCreate,
			Class: "Audit",
			Attrs: map[string]string{"note": "sym", "price": "p"},
		}},
		EC: "immediate", CA: "immediate",
	}
	if _, err := e.CreateRule(def); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(2)}); err != nil {
		t.Fatal(err)
	}
	if got := auditCountIn(t, e, tx); got != 3 {
		t.Fatalf("action executions = %d, want one per primary row (3)", got)
	}
	tx.Commit()
}

func TestAbortStepRollsBackTrigger(t *testing.T) {
	// The constraint-enforcement pattern: a rule with an abort action
	// makes the triggering operation fail; the application aborts.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	def := rule.Def{
		Name:      "no-negative-prices",
		Event:     "modify(Stock)",
		Condition: []string{"select s from Stock s where event.new_price < 0"},
		Action:    []rule.Step{{Kind: rule.StepAbort}},
		EC:        "immediate", CA: "immediate",
	}
	if _, err := e.CreateRule(def); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(-5)})
	if !errors.Is(err, rule.AbortRequested) {
		t.Fatalf("modify error = %v, want AbortRequested", err)
	}
	tx.Abort()
	check := e.Begin()
	rec, err := e.Get(check, oid)
	if err != nil || rec.Attrs["price"].AsFloat() != 48 {
		t.Fatalf("price after rollback = %v (%v)", rec.Attrs["price"], err)
	}
	check.Commit() // release the read lock before writing again
	// A legal update still passes.
	tx2 := e.Begin()
	if err := e.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
}

func TestDeferredSeesFinalState(t *testing.T) {
	// C7: deferred conditions/actions evaluate against the state at
	// commit, not at the triggering operation.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 1)
	var observed []float64
	e.RegisterCall("observe", func(tx *txn.Txn, b map[string]datum.Value) error {
		rec, err := e.Get(tx, oid)
		if err != nil {
			return err
		}
		observed = append(observed, rec.Attrs["price"].AsFloat())
		return nil
	})
	def := rule.Def{
		Name:   "observe-at-commit",
		Event:  "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "observe"}},
		EC:     "deferred", CA: "immediate",
	}
	if _, err := e.CreateRule(def); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for _, p := range []float64{2, 3, 4} {
		if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(observed) != 0 {
		t.Fatal("deferred rule fired before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 3 {
		t.Fatalf("deferred firings = %d, want 3 (one per queued event)", len(observed))
	}
	for _, p := range observed {
		if p != 4 {
			t.Fatalf("deferred firing saw price %v, want final state 4", p)
		}
	}
}

func TestDeferredErrorAbortsCommit(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	def := rule.Def{
		Name:      "commit-guard",
		Event:     "modify(Stock)",
		Condition: []string{"select s from Stock s where s.price > 100"},
		Action:    []rule.Step{{Kind: rule.StepAbort}},
		EC:        "deferred", CA: "immediate",
	}
	if _, err := e.CreateRule(def); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(150)}); err != nil {
		t.Fatal(err) // deferred: the operation itself succeeds
	}
	err := tx.Commit()
	if !errors.Is(err, rule.AbortRequested) {
		t.Fatalf("commit error = %v, want AbortRequested", err)
	}
	if tx.State() != txn.Aborted {
		t.Fatalf("txn state = %v, want Aborted", tx.State())
	}
	check := e.Begin()
	defer check.Commit()
	rec, _ := e.Get(check, oid)
	if rec.Attrs["price"].AsFloat() != 48 {
		t.Fatalf("price = %v; deferred abort did not roll back", rec.Attrs["price"])
	}
}

func TestCascadingRules(t *testing.T) {
	// C3: rule A's action modifies data that triggers rule B,
	// producing a tree of nested transactions.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	_, err := e.CreateRule(rule.Def{
		Name:  "audit-on-modify",
		Event: "modify(Stock)",
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'level1'", "price": "event.new_price"},
		}},
		EC: "immediate", CA: "immediate",
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.CreateRule(rule.Def{
		Name:  "audit-the-audit",
		Event: "create(Audit)",
		Condition: []string{
			"select a from Audit a where event.new_note = 'level1'",
		},
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'level2'"},
		}},
		EC: "immediate", CA: "immediate",
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	if got := auditCountIn(t, e, tx); got != 2 {
		t.Fatalf("audit rows = %d, want 2 (cascade)", got)
	}
	tx.Commit()
}

func TestCascadeAbortDiscardsSubtree(t *testing.T) {
	// An abort deep in a cascade unwinds every level.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	e.CreateRule(rule.Def{
		Name:  "level1",
		Event: "modify(Stock)",
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'level1'"},
		}},
		EC: "immediate", CA: "immediate",
	})
	e.CreateRule(rule.Def{
		Name:   "level2-poison",
		Event:  "create(Audit)",
		Action: []rule.Step{{Kind: rule.StepAbort}},
		EC:     "immediate", CA: "immediate",
	})
	tx := e.Begin()
	err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)})
	if !errors.Is(err, rule.AbortRequested) {
		t.Fatalf("modify error = %v", err)
	}
	tx.Abort()
	if got := auditCount(t, e); got != 0 {
		t.Fatalf("audit rows = %d after cascade abort, want 0", got)
	}
	check := e.Begin()
	defer check.Commit()
	rec, _ := e.Get(check, oid)
	if rec.Attrs["price"].AsFloat() != 48 {
		t.Fatal("trigger effect survived cascade abort")
	}
}

func TestExternalEventRule(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	if err := e.DefineEvent("TradeExecuted", "symbol", "qty"); err != nil {
		t.Fatal(err)
	}
	// Re-definition is rejected.
	if err := e.DefineEvent("TradeExecuted"); err == nil {
		t.Fatal("duplicate event definition accepted")
	}
	e.CreateRule(rule.Def{
		Name:  "log-trades",
		Event: "external(TradeExecuted)",
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "event.symbol", "price": "event.qty * 1.0"},
		}},
		EC: "immediate", CA: "immediate",
	})
	// Signalling an undefined event fails.
	if err := e.SignalEvent(nil, "Bogus", nil); err == nil {
		t.Fatal("undefined event accepted")
	}
	// Missing declared parameter fails.
	if err := e.SignalEvent(nil, "TradeExecuted", map[string]datum.Value{"symbol": datum.Str("XRX")}); err == nil {
		t.Fatal("missing parameter accepted")
	}
	tx := e.Begin()
	if err := e.SignalEvent(tx, "TradeExecuted", map[string]datum.Value{
		"symbol": datum.Str("XRX"), "qty": datum.Int(500),
	}); err != nil {
		t.Fatal(err)
	}
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatalf("audit rows = %d", got)
	}
	tx.Commit()
}

func TestTemporalRule(t *testing.T) {
	e, clk := newEngine(t)
	defineStockAndAudit(t, e)
	e.CreateRule(rule.Def{
		Name:  "heartbeat",
		Event: "every(10s)",
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'tick'"},
		}},
		EC: "immediate", CA: "immediate", // no txn: degrades to separate
	})
	clk.Advance(35 * time.Second)
	e.Quiesce()
	if got := auditCount(t, e); got != 3 {
		t.Fatalf("ticks = %d, want 3", got)
	}
	if errs := e.AsyncErrors(); len(errs) != 0 {
		t.Fatalf("async errors: %v", errs)
	}
}

func TestCloseStopsDetectorTimers(t *testing.T) {
	// Close stops temporal timers and cep GC sweeps: none fires or
	// re-arms afterwards, so nothing keeps the closed engine alive.
	clk := clock.NewVirtual(epoch)
	e, err := Open(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defineStockAndAudit(t, e)
	for _, ev := range []string{"A", "B"} {
		if err := e.DefineEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	for name, spec := range map[string]string{"heartbeat": "every(10s)", "pair": "within(A, B, 10s)"} {
		if _, err := e.CreateRule(rule.Def{Name: name, Event: spec, EC: "immediate", CA: "immediate",
			Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit", Attrs: map[string]string{"note": "'x'"}}}}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Second)
	e.Quiesce()
	if got := e.Detectors.Stats().TemporalFirings; got != 1 {
		t.Fatalf("TemporalFirings = %d before Close, want 1", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(35 * time.Second)
	if got := e.Detectors.Stats().TemporalFirings; got != 1 {
		t.Fatalf("TemporalFirings = %d after Close, want 1", got)
	}
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("%d timers pending after Close", n)
	}
}

func TestCompositeSequenceRule(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	e.DefineEvent("Open")
	e.DefineEvent("Close")
	e.CreateRule(rule.Def{
		Name:  "session",
		Event: "seq(external(Open), external(Close))",
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'session-complete'"},
		}},
		EC: "immediate", CA: "immediate",
	})
	tx := e.Begin()
	e.SignalEvent(tx, "Close", nil) // out of order: ignored
	e.SignalEvent(tx, "Open", nil)
	if got := auditCountIn(t, e, tx); got != 0 {
		t.Fatal("sequence fired early")
	}
	e.SignalEvent(tx, "Close", nil)
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatalf("audit rows = %d", got)
	}
	tx.Commit()
}

func TestAppRequestAction(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	var got map[string]datum.Value
	e.RegisterAppOperation("display_quote", func(args map[string]datum.Value) (map[string]datum.Value, error) {
		got = args
		return nil, nil
	})
	e.CreateRule(rule.Def{
		Name:  "ticker-window",
		Event: "modify(Stock)",
		Action: []rule.Step{{
			Kind: rule.StepRequest, Op: "display_quote",
			Args: map[string]string{"price": "event.new_price", "markup": "event.new_price * 1.1"},
		}},
		EC: "separate", CA: "immediate", // the paper's display-rule coupling
	})
	tx := e.Begin()
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)})
	tx.Commit()
	e.Quiesce()
	if got == nil {
		t.Fatal("application operation not invoked")
	}
	if got["price"].AsFloat() != 50 || got["markup"].AsFloat() != 55.00000000000001 && got["markup"].AsFloat() != 55 {
		t.Fatalf("args = %v", got)
	}
	if errs := e.AsyncErrors(); len(errs) != 0 {
		t.Fatalf("async errors: %v", errs)
	}
}

func TestSignalStepCascade(t *testing.T) {
	// A rule action signals an external event, which triggers a
	// second rule: flow of control through events (§4.2).
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	e.DefineEvent("PriceAlert", "level")
	e.CreateRule(rule.Def{
		Name:  "alert-on-rise",
		Event: "modify(Stock)",
		Action: []rule.Step{{
			Kind: rule.StepSignal, Event: "PriceAlert",
			Args: map[string]string{"level": "event.new_price"},
		}},
		EC: "immediate", CA: "immediate",
	})
	e.CreateRule(rule.Def{
		Name:  "log-alert",
		Event: "external(PriceAlert)",
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'alert'", "price": "event.level"},
		}},
		EC: "immediate", CA: "immediate",
	})
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(60)}); err != nil {
		t.Fatal(err)
	}
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatalf("audit rows = %d", got)
	}
	tx.Commit()
}

func TestEnableDisableAndManualFire(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	e.CreateRule(auditRule("audit", "immediate", "immediate"))
	if err := e.DisableRule("audit"); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)})
	if got := auditCountIn(t, e, tx); got != 0 {
		t.Fatal("disabled rule fired automatically")
	}
	// Manual fire works even when disabled (§2.2: disable only stops
	// automatic firing).
	if err := e.FireRule(tx, "audit", map[string]datum.Value{"new_price": datum.Float(99)}); err != nil {
		t.Fatal(err)
	}
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatal("manual fire did not run")
	}
	// tx holds the fired rule's read lock; EnableRule (a rule update,
	// write lock) would block until it ends. Commit first.
	tx.Commit()
	if err := e.EnableRule("audit"); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin()
	e.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(51)})
	if got := auditCountIn(t, e, tx2); got != 2 {
		t.Fatal("re-enabled rule did not fire")
	}
	tx2.Commit()
	if err := e.FireRule(nil, "nope", nil); err == nil {
		t.Fatal("firing unknown rule should fail")
	}
}

func TestDeleteRuleStopsFiring(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	e.CreateRule(auditRule("audit", "immediate", "immediate"))
	if err := e.DeleteRule("audit"); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)})
	if got := auditCountIn(t, e, tx); got != 0 {
		t.Fatal("deleted rule fired")
	}
	tx.Commit()
	if err := e.DeleteRule("audit"); err == nil {
		t.Fatal("double delete should fail")
	}
	if e.Conditions.NodeCount() != 0 {
		t.Fatal("condition graph not cleaned up")
	}
}

func TestUpdateRuleReplacesInPlace(t *testing.T) {
	// §2.2 "modify": the rule keeps its object identity but its
	// event, condition, and action change atomically.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	r1, err := e.CreateRule(auditRule("audit", "immediate", "immediate"))
	if err != nil {
		t.Fatal(err)
	}
	// Change the rule to only fire at >= 100.
	def := auditRule("audit", "immediate", "immediate")
	def.Condition = []string{"select s from Stock s where event.new_price >= 100"}
	r2, err := e.UpdateRule(def)
	if err != nil {
		t.Fatal(err)
	}
	if r2.OID != r1.OID {
		t.Fatalf("update changed the rule's OID: %v -> %v", r1.OID, r2.OID)
	}
	tx := e.Begin()
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)})
	if got := auditCountIn(t, e, tx); got != 0 {
		t.Fatal("updated rule fired below its new threshold")
	}
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(150)})
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatal("updated rule did not fire above its new threshold")
	}
	tx.Commit()
	// The persisted definition is the new one.
	rec, err := e.Get(func() *txn.Txn { c := e.Begin(); t.Cleanup(func() { c.Commit() }); return c }(), r1.OID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.Attrs["def"].AsString(), "100") {
		t.Fatalf("persisted def = %s", rec.Attrs["def"].AsString())
	}
	// Updating an unknown rule fails.
	if _, err := e.UpdateRule(auditRule("nope", "immediate", "immediate")); err == nil {
		t.Fatal("update of unknown rule accepted")
	}
	// An update that fails to compile leaves the old rule intact.
	bad := auditRule("audit", "bogus-coupling", "immediate")
	if _, err := e.UpdateRule(bad); err == nil {
		t.Fatal("bad update accepted")
	}
	tx2 := e.Begin()
	e.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(200)})
	if got := auditCountIn(t, e, tx2); got != 2 {
		t.Fatal("rule lost after failed update")
	}
	tx2.Commit()
}

func TestDerivedEventSpec(t *testing.T) {
	// §2.1: omitted event -> derived from the condition's footprint.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	r, err := e.CreateRule(rule.Def{
		Name:      "derived",
		Condition: []string{"select s from Stock s where s.price > 100"},
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'expensive'"},
		}},
		EC: "immediate", CA: "immediate",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Derived || r.EventString() != "anyop(Stock)" {
		t.Fatalf("derived spec = %q (derived=%v)", r.EventString(), r.Derived)
	}
	// Any Stock operation triggers it — here a create.
	tx := e.Begin()
	if _, err := e.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str("IBM"), "price": datum.Float(120),
	}); err != nil {
		t.Fatal(err)
	}
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatalf("audit rows = %d", got)
	}
	tx.Commit()
}

func TestRulesPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual(epoch)
	e, err := Open(Options{Dir: dir, NoSync: true, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineClass(tx, auditClass); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	oid, _ := func() (datum.OID, error) {
		tx := e.Begin()
		defer tx.Commit()
		return e.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX"), "price": datum.Float(48)})
	}()
	if _, err := e.CreateRule(auditRule("audit", "immediate", "immediate")); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineEvent("Custom", "x"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir, NoSync: true, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, ok := e2.Rules.GetRule("audit"); !ok {
		t.Fatal("rule lost across reopen")
	}
	if _, ok := e2.EventDefined("Custom"); !ok {
		t.Fatal("event definition lost across reopen")
	}
	// The restored rule fires.
	tx2 := e2.Begin()
	if err := e2.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	res, err := e2.Query(tx2, "select count(*) as n from Audit a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatal("restored rule did not fire")
	}
	tx2.Commit()
}

func TestRuleLocking(t *testing.T) {
	// C9: firing holds a read lock on the rule object; a concurrent
	// rule update (delete) blocks until the lock is released.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	e.CreateRule(auditRule("audit", "immediate", "immediate"))
	oid := createStock(t, e, "XRX", 48)

	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	// The firing's read lock was inherited by tx (the condition
	// subtransaction committed into it), so DeleteRule's write lock
	// must wait for tx.
	done := make(chan error, 1)
	go func() { done <- e.DeleteRule("audit") }()
	select {
	case err := <-done:
		t.Fatalf("DeleteRule did not block on the firing's read lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	tx.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	e.CreateRule(auditRule("audit", "immediate", "immediate"))
	tx := e.Begin()
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)})
	tx.Commit()
	s := e.Stats()
	if s.Rules.Signals == 0 || s.Rules.ImmediateFirings != 1 ||
		s.Rules.ConditionsSatisfied != 1 || s.Rules.ActionsExecuted != 1 {
		t.Fatalf("rule stats = %+v", s.Rules)
	}
	if s.LiveTxns != 0 {
		t.Fatalf("live txns = %d", s.LiveTxns)
	}
}

func TestEngineClockAndAppOpRegistry(t *testing.T) {
	e, clk := newEngine(t)
	if e.Clock() != clk {
		t.Fatal("Clock() did not return the injected clock")
	}
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	calls := 0
	e.RegisterAppOperation("op", func(map[string]datum.Value) (map[string]datum.Value, error) {
		calls++
		return nil, nil
	})
	if _, err := e.CreateRule(rule.Def{
		Name:   "req",
		Event:  "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepRequest, Op: "op", Args: map[string]string{}}},
		EC:     "immediate", CA: "immediate",
	}); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(1)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	// After unregistering, the request step fails (no fallback).
	e.UnregisterAppOperation("op")
	tx2 := e.Begin()
	if err := e.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(2)}); err == nil {
		t.Fatal("request to unregistered operation succeeded")
	}
	tx2.Abort()
}

func TestEngineDropClass(t *testing.T) {
	e, _ := newEngine(t)
	tx := e.Begin()
	if err := e.DefineClass(tx, object.Class{Name: "Gone"}); err != nil {
		t.Fatal(err)
	}
	if err := e.DropClass(tx, "Gone"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx2 := e.Begin()
	defer tx2.Commit()
	if _, err := e.Create(tx2, "Gone", nil); err == nil {
		t.Fatal("create in dropped class succeeded")
	}
}
