package core

// Tests for subtler Rule Manager behaviours: shared detector
// subscriptions with mixed enablement, action-step sequences, C-A
// wave ordering, and cascaded deferred firings.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/datum"
	"repro/internal/rule"
	"repro/internal/storage"
	"repro/internal/txn"
)

func TestPartialDisableAmongSharedSubscription(t *testing.T) {
	// Rules with identical events share one detector subscription;
	// disabling ONE of them must not silence the others.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	for _, name := range []string{"r1", "r2", "r3"} {
		def := auditRule(name, "immediate", "immediate")
		def.Action[0].Attrs["note"] = "'" + name + "'"
		if _, err := e.CreateRule(def); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DisableRule("r2"); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(tx, "select a.note from Audit a order by a.note", nil)
	if err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, r := range res.Rows {
		notes = append(notes, r[0].AsString())
	}
	if len(notes) != 2 || notes[0] != "r1" || notes[1] != "r3" {
		t.Fatalf("fired = %v, want [r1 r3]", notes)
	}
	tx.Commit()

	// Disabling the remaining two disables the subscription entirely;
	// re-enabling one brings detection back.
	e.DisableRule("r1")
	e.DisableRule("r3")
	tx2 := e.Begin()
	e.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(51)})
	if got := auditCountIn(t, e, tx2); got != 2 {
		t.Fatalf("disabled rules fired: %d rows", got)
	}
	tx2.Commit()
	e.EnableRule("r2")
	tx3 := e.Begin()
	e.Modify(tx3, oid, map[string]datum.Value{"price": datum.Float(52)})
	res, _ = e.Query(tx3, "select a.note from Audit a where a.note = 'r2'", nil)
	if len(res.Rows) != 1 {
		t.Fatal("re-enabled rule in shared subscription did not fire")
	}
	tx3.Commit()
}

func TestDeleteOneOfSharedSubscription(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	e.CreateRule(auditRule("keep", "immediate", "immediate"))
	e.CreateRule(auditRule("drop", "immediate", "immediate"))
	subs := e.Detectors.Subscriptions()
	if err := e.DeleteRule("drop"); err != nil {
		t.Fatal(err)
	}
	// The shared subscription survives (still referenced by "keep").
	if e.Detectors.Subscriptions() != subs {
		t.Fatalf("subscription dropped while still referenced")
	}
	tx := e.Begin()
	e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)})
	if got := auditCountIn(t, e, tx); got != 1 {
		t.Fatalf("surviving rule fired %d times, want 1", got)
	}
	tx.Commit()
	// Deleting the last rule removes the subscription.
	if err := e.DeleteRule("keep"); err != nil {
		t.Fatal(err)
	}
	if e.Detectors.Subscriptions() != subs-1 {
		t.Fatal("subscription leaked after last rule deleted")
	}
}

func TestActionStepSequence(t *testing.T) {
	// §2.1: "The action is a sequence of operations" — steps run in
	// order, in one action transaction.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	var order []string
	var mu sync.Mutex
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.RegisterCall(name, func(*txn.Txn, map[string]datum.Value) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		})
	}
	if _, err := e.CreateRule(rule.Def{
		Name:  "multi-step",
		Event: "modify(Stock)",
		Action: []rule.Step{
			{Kind: rule.StepCall, Fn: "first"},
			{Kind: rule.StepCreate, Class: "Audit", Attrs: map[string]string{"note": "'mid'"}},
			{Kind: rule.StepCall, Fn: "second"},
			{Kind: rule.StepCall, Fn: "third"},
		},
		EC: "immediate", CA: "immediate",
	}); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("step order = %v", order)
	}
	if got := auditCount(t, e); got != 1 {
		t.Fatalf("mid-step create lost: %d", got)
	}
}

func TestActionStepFailureAbortsWholeAction(t *testing.T) {
	// A failing later step rolls back the earlier steps of the same
	// action transaction (atomic actions).
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	if _, err := e.CreateRule(rule.Def{
		Name:  "half-broken",
		Event: "modify(Stock)",
		Action: []rule.Step{
			{Kind: rule.StepCreate, Class: "Audit", Attrs: map[string]string{"note": "'early'"}},
			{Kind: rule.StepAbort}, // fails after the create
		},
		EC: "immediate", CA: "immediate",
	}); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err == nil {
		t.Fatal("failing action did not surface")
	}
	// The early create was rolled back with the action txn.
	if got := auditCountIn(t, e, tx); got != 0 {
		t.Fatalf("partial action effects leaked: %d rows", got)
	}
	tx.Abort()
}

func TestCAWaveOrdering(t *testing.T) {
	// Among rules triggered by one event: C-A immediate actions all
	// complete before any C-A deferred action starts.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	var mu sync.Mutex
	var order []string
	mark := func(name string) rule.CallFunc {
		return func(*txn.Txn, map[string]datum.Value) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	e.RegisterCall("imm", mark("imm"))
	e.RegisterCall("def", mark("def"))
	// Create the deferred-CA rule FIRST so map iteration order can't
	// accidentally give the right answer.
	e.CreateRule(rule.Def{
		Name: "ca-deferred", Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "def"}},
		EC:     "immediate", CA: "deferred",
	})
	e.CreateRule(rule.Def{
		Name: "ca-immediate", Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "imm"}},
		EC:     "immediate", CA: "immediate",
	})
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "imm" || order[1] != "def" {
		t.Fatalf("wave order = %v, want [imm def]", order)
	}
}

func TestCascadedDeferredFiringsDrainCompletely(t *testing.T) {
	// A deferred firing's action triggers another deferred firing on
	// the same committing transaction; the §6.3 drain loop must
	// process the newly queued work before commit completes.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	e.CreateRule(rule.Def{
		Name:  "level1-deferred",
		Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'level1'"}}},
		EC: "deferred", CA: "immediate",
	})
	e.CreateRule(rule.Def{
		Name:      "level2-deferred",
		Event:     "create(Audit)",
		Condition: []string{"select a from Audit a where event.new_note = 'level1'"},
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'level2'"}}},
		EC: "deferred", CA: "immediate",
	})
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	if got := auditCountIn(t, e, tx); got != 0 {
		t.Fatal("deferred fired early")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := e.Begin()
	defer check.Commit()
	res, err := e.Query(check, "select a.note from Audit a order by a.note", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "level1" || res.Rows[1][0].AsString() != "level2" {
		t.Fatalf("cascaded deferred drain = %v", res.Rows)
	}
}

func TestFireWithConditionRows(t *testing.T) {
	// Manual Fire evaluates the condition like an automatic firing:
	// the action runs per primary row.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	createStock(t, e, "A", 100)
	createStock(t, e, "B", 200)
	createStock(t, e, "C", 10)
	e.CreateRule(rule.Def{
		Name:      "sweep",
		Event:     "external(never-fires)",
		Condition: []string{"select s.symbol as sym from Stock s where s.price >= 100"},
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "sym"}}},
		EC: "immediate", CA: "immediate",
		Disabled: true,
	})
	tx := e.Begin()
	if err := e.FireRule(tx, "sweep", nil); err != nil {
		t.Fatal(err)
	}
	if got := auditCountIn(t, e, tx); got != 2 {
		t.Fatalf("fired actions = %d, want 2 (per matching row)", got)
	}
	tx.Commit()
}

// TestSelfCascadeIsBounded: a rule on create(Audit) whose action creates
// an Audit raises its own event forever. Immediate and deferred
// couplings nest each level one transaction deeper, so the cascade
// bound must end it with rule.ErrCascadeDepth, abort every level, and
// leave no transaction behind. Separate coupling runs each level in a
// top-level transaction of its own, which must still count as one level
// deeper.
func TestSelfCascadeIsBounded(t *testing.T) {
	for _, mode := range []string{"immediate", "deferred"} {
		t.Run(mode, func(t *testing.T) {
			e, _ := newEngine(t)
			defineStockAndAudit(t, e)
			if _, err := e.CreateRule(rule.Def{
				Name:  "self",
				Event: "create(Audit)",
				Action: []rule.Step{{
					Kind: rule.StepCreate, Class: "Audit",
					Attrs: map[string]string{"note": "'again'"},
				}},
				EC: mode, CA: "immediate",
			}); err != nil {
				t.Fatal(err)
			}
			base := e.Txns.Live()
			done := make(chan error, 1)
			go func() {
				tx := e.Begin()
				if _, err := e.Create(tx, "Audit", map[string]datum.Value{"note": datum.Str("seed")}); err != nil {
					tx.Abort()
					done <- err
					return
				}
				if err := tx.Commit(); err != nil {
					done <- err
					return
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if !errors.Is(err, rule.ErrCascadeDepth) {
					t.Fatalf("self-cascade returned %v, want rule.ErrCascadeDepth", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("self-cascade still running after 10s (%d live transactions)", e.Txns.Live())
			}
			if live := e.Txns.Live(); live != base {
				t.Fatalf("%d live transactions after the abort, baseline %d", live, base)
			}
			tx := e.Begin()
			defer tx.Commit()
			res, err := e.Query(tx, "select a.note from Audit a", nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 0 {
				t.Fatalf("%d Audit objects survived the aborted cascade", len(res.Rows))
			}
		})
	}
	t.Run("separate", func(t *testing.T) {
		// Each level begins a top-level transaction of its own, one
		// cascade level below its trigger: the levels up to the bound
		// commit, and the firing past it is refused, reported through
		// the async-error sink.
		e, _ := newEngine(t)
		defineStockAndAudit(t, e)
		if _, err := e.CreateRule(rule.Def{
			Name:  "self",
			Event: "create(Audit)",
			Action: []rule.Step{{
				Kind: rule.StepCreate, Class: "Audit",
				Attrs: map[string]string{"note": "'again'"},
			}},
			EC: "separate", CA: "immediate",
		}); err != nil {
			t.Fatal(err)
		}
		audits := func() int {
			tx := e.Begin()
			defer tx.Commit()
			res, err := e.Query(tx, "select a.note from Audit a", nil)
			if err != nil {
				t.Fatal(err)
			}
			return len(res.Rows)
		}
		tx := e.Begin()
		if _, err := e.Create(tx, "Audit", map[string]datum.Value{"note": datum.Str("seed")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		var errs []error
		for deadline := time.Now().Add(10 * time.Second); len(errs) == 0 && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			errs = e.AsyncErrors()
		}
		if len(errs) == 0 {
			n := audits()
			e.DisableRule("self") // end the cascade, so that Close can quiesce
			t.Fatalf("separate self-cascade still running after 10s (%d Audit objects)", n)
		}
		e.Quiesce()
		if len(errs) != 1 || !errors.Is(errs[0], rule.ErrCascadeDepth) {
			t.Fatalf("async errors %v, want one rule.ErrCascadeDepth", errs)
		}
		n := audits()
		if n > rule.MaxCascadeDepth+2 {
			t.Fatalf("%d Audit objects, want at most %d", n, rule.MaxCascadeDepth+2)
		}
		time.Sleep(50 * time.Millisecond)
		e.Quiesce()
		if now := audits(); now != n {
			t.Fatalf("Audit objects grew from %d to %d after the refusal", n, now)
		}
		if st := e.Rules.Stats(); st.CascadeAborted != 1 {
			t.Fatalf("CascadeAborted = %d, want 1", st.CascadeAborted)
		}
	})
}

// TestAsyncErrorSinkIsBounded: errors from separate firings nobody
// drains must not pile up. Three times the sink's capacity of failing
// firings leave it at the capacity plus one summary error, while the
// rule counter still sees every failure.
func TestAsyncErrorSinkIsBounded(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	if _, err := e.CreateRule(rule.Def{
		Name:   "fail",
		Event:  "create(Audit)",
		Action: []rule.Step{{Kind: rule.StepAbort}},
		EC:     "separate", CA: "immediate",
	}); err != nil {
		t.Fatal(err)
	}
	const n = 3 * maxAsyncErrors
	tx := e.Begin()
	for i := 0; i < n; i++ {
		if _, err := e.Create(tx, "Audit", map[string]datum.Value{"note": datum.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Quiesce()
	if got := e.Rules.Stats().AsyncErrors; got != n {
		t.Fatalf("AsyncErrors counter = %d, want %d", got, n)
	}
	e.async.mu.Lock()
	kept, recorded := len(e.async.errs), e.async.n
	e.async.mu.Unlock()
	if kept != maxAsyncErrors || recorded != n {
		t.Fatalf("sink holds %d errors of %d recorded, want %d of %d", kept, recorded, maxAsyncErrors, n)
	}
	errs := e.AsyncErrors()
	if len(errs) != maxAsyncErrors+1 || !errors.Is(errs[0], rule.AbortRequested) {
		t.Fatalf("drained %d errors (first %v), want %d led by rule.AbortRequested",
			len(errs), errs[0], maxAsyncErrors+1)
	}
	if last := errs[len(errs)-1].Error(); last != fmt.Sprintf("%d more asynchronous errors dropped", n-maxAsyncErrors) {
		t.Fatalf("summary error %q", last)
	}
	if errs := e.AsyncErrors(); len(errs) != 0 {
		t.Fatalf("second drain returned %d errors, want 0", len(errs))
	}
}

// ruleObjects counts the persisted rule objects.
func ruleObjects(e *Engine) int {
	n := 0
	e.Store.ScanClass(0, rule.RuleClass, func(storage.Object) bool { n++; return true })
	return n
}

func TestBadRuleEventLeavesDirectoryOpenable(t *testing.T) {
	// An event the detectors cannot run must fail CreateRule before
	// the rule object is persisted: a persisted one would fail every
	// later Open of the directory.
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, NoSync: true, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range []string{"every(0s)", "after(-5s)", "every(external(X), 0s)"} {
		if _, err := e.CreateRule(rule.Def{
			Name:   fmt.Sprintf("bad-%d", i),
			Event:  ev,
			Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
		}); err == nil {
			t.Errorf("CreateRule with event %q succeeded", ev)
		}
	}
	e.Close()
	e2, err := Open(Options{Dir: dir, NoSync: true, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	if n := ruleObjects(e2); n != 0 {
		t.Fatalf("%d rule objects persisted, want 0", n)
	}
}

func TestConcurrentCreateRuleSameName(t *testing.T) {
	// Racing creators of one name: exactly one succeeds, and one rule
	// is registered and persisted.
	e, _ := newEngine(t)
	const n = 16
	var wg sync.WaitGroup
	var ok atomic.Int32
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := e.CreateRule(rule.Def{
				Name:   "dup",
				Event:  "external(X)",
				Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
			}); err == nil {
				ok.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := ok.Load(); got != 1 {
		t.Fatalf("%d CreateRule calls succeeded, want 1", got)
	}
	if got := len(e.Rules.Rules()); got != 1 {
		t.Fatalf("Rules() has %d entries, want 1", got)
	}
	if got := ruleObjects(e); got != 1 {
		t.Fatalf("%d rule objects persisted, want 1", got)
	}
}

func TestRuleActionsDoNotLoseUpdates(t *testing.T) {
	// The SAA portfolio rule's shape: the condition selects a Stock and
	// the action adds the event's amount to its price. Many transactions
	// signal it at once; each firing must read the price the previous
	// one wrote, under every coupling that runs the action.
	const signals = 400
	for _, tc := range []struct{ ec, ca string }{
		{"immediate", "immediate"},
		{"deferred", "immediate"},
		{"separate", "immediate"},
		{"immediate", "separate"},
	} {
		t.Run(tc.ec+"/"+tc.ca, func(t *testing.T) {
			e, _ := newEngine(t)
			defineStockAndAudit(t, e)
			if err := e.DefineEvent("Add", "sym", "amount"); err != nil {
				t.Fatal(err)
			}
			oid := createStock(t, e, "XRX", 0)
			if _, err := e.CreateRule(rule.Def{
				Name:      "bump",
				Event:     "external(Add)",
				Condition: []string{"select s from Stock s where s.symbol = event.sym"},
				Action: []rule.Step{{
					Kind: rule.StepModify, Target: "s",
					Attrs: map[string]string{"price": "s.price + event.amount"},
				}},
				EC: tc.ec, CA: tc.ca,
			}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < signals; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := e.Begin()
					if err := e.SignalEvent(tx, "Add", map[string]datum.Value{
						"sym": datum.Str("XRX"), "amount": datum.Float(1),
					}); err != nil {
						tx.Abort()
						t.Error(err)
						return
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			e.Quiesce()
			for _, err := range e.AsyncErrors() {
				t.Error(err)
			}
			tx := e.Begin()
			defer tx.Commit()
			rec, err := e.Get(tx, oid)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Attrs["price"].AsFloat(); got != signals {
				t.Fatalf("final price %v after %d committed firings", got, signals)
			}
		})
	}
}
