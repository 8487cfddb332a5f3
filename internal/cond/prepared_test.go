// Tests for prepared plans: a condition-graph node plans its query once
// and executes that plan on every signal, rebuilding it only when the
// catalog drifts from what it was costed with.
package cond_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/rule"
	"repro/internal/txn"
)

// nodePlan returns the plan text of the graph's only node.
func nodePlan(t *testing.T, e *core.Engine) string {
	t.Helper()
	nodes := e.Conditions.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("%d condition-graph nodes, want 1", len(nodes))
	}
	return nodes[0].Plan
}

// TestPreparedPlanFollowsExtentGrowth creates a rule whose condition
// reads a class while the class is empty, then loads 10 000 objects,
// each create firing the rule. The node's first plan scans the empty
// extent; as the extent doubles the node re-plans, ending on the index,
// and it plans O(log n) times, not once per evaluation.
func TestPreparedPlanFollowsExtentGrowth(t *testing.T) {
	e, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
	tx := e.Begin()
	if err := e.DefineClass(tx, object.Class{Name: "Item", Attrs: []object.AttrDef{
		{Name: "k", Kind: datum.KindInt, Indexed: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateRule(rule.Def{
		Name:      "same-k",
		Event:     "create(Item)",
		Condition: []string{"select i from Item i where i.k = event.new_k"},
		Action:    []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
	}); err != nil {
		t.Fatal(err)
	}
	const n, batch = 10_000, 100
	for b := 0; b < n/batch; b++ {
		tx := e.Begin()
		for i := 0; i < batch; i++ {
			if _, err := e.Create(tx, "Item", map[string]datum.Value{"k": datum.Int(int64(b*batch + i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Conditions.Stats()
	if st.Evaluations < n {
		t.Fatalf("%d evaluations, want %d", st.Evaluations, n)
	}
	// One build, then one per doubling of the extent: log2(10 000) ≈ 13.
	if st.PlanBuilds < 2 || st.PlanBuilds > 20 {
		t.Fatalf("%d plan builds over %d evaluations, want O(log n)", st.PlanBuilds, st.Evaluations)
	}
	if text := nodePlan(t, e); !strings.Contains(text, "index scan Item") {
		t.Fatalf("final plan is not an index probe:\n%s", text)
	}
	if sat := e.Rules.Stats().ConditionsSatisfied; sat != n {
		t.Fatalf("%d conditions satisfied, want %d", sat, n)
	}
}

// TestPreparedPlanSeesLateClass creates a rule whose condition reads a
// class that does not exist yet. The node plans against the missing
// class; once the class is defined with an index, the next evaluation
// re-plans onto the index.
func TestPreparedPlanSeesLateClass(t *testing.T) {
	e, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
	if err := e.DefineEvent("Ping", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateRule(rule.Def{
		Name:      "late",
		Event:     "external(Ping)",
		Condition: []string{"select l from Late l where l.k = event.k"},
		Action:    []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
	}); err != nil {
		t.Fatal(err)
	}
	ping := func(k int64) {
		t.Helper()
		tx := e.Begin()
		if err := e.SignalEvent(tx, "Ping", map[string]datum.Value{"k": datum.Int(k)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ping(1)
	ping(2)
	if st := e.Conditions.Stats(); st.PlanBuilds != 1 || st.Evaluations != 2 {
		t.Fatalf("before the class: %d builds, %d evaluations; want 1, 2", st.PlanBuilds, st.Evaluations)
	}
	if text := nodePlan(t, e); !strings.Contains(text, "extent scan Late") {
		t.Fatalf("plan over the missing class:\n%s", text)
	}

	tx := e.Begin()
	if err := e.DefineClass(tx, object.Class{Name: "Late", Attrs: []object.AttrDef{
		{Name: "k", Kind: datum.KindInt, Indexed: true},
	}}); err != nil {
		t.Fatal(err)
	}
	// Two objects: the index probe wins, and the extent (2) is still
	// within 2× the one costed (0, counting as 1), so it is the new
	// index that makes the plan stale.
	for _, k := range []int64{7, 8} {
		if _, err := e.Create(tx, "Late", map[string]datum.Value{"k": datum.Int(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ping(7)
	if st := e.Conditions.Stats(); st.PlanBuilds != 2 {
		t.Fatalf("%d plan builds after the class appeared, want 2", st.PlanBuilds)
	}
	if text := nodePlan(t, e); !strings.Contains(text, "index scan Late") {
		t.Fatalf("plan after the class appeared:\n%s", text)
	}
	if sat := e.Rules.Stats().ConditionsSatisfied; sat != 1 {
		t.Fatalf("%d conditions satisfied, want 1 (k = 7)", sat)
	}
}

// TestPreparedPlanConcurrentFirstEvaluation races eight goroutines
// through one node's first evaluation (run it under -race): each may
// build a plan, every one must see the same result, and the node keeps
// one.
func TestPreparedPlanConcurrentFirstEvaluation(t *testing.T) {
	e := condEngine(t)
	for i := 0; i < 40; i++ {
		addHolding(t, e, []string{"kim", "lee"}[i%2], "XRX", int64(i))
	}
	c, err := cond.ParseCondition([]string{"select h.qty from Holding h where h.owner = event.who"})
	if err != nil {
		t.Fatal(err)
	}
	ev := cond.New(plan.Options{})
	ev.AddRule(1, c)
	tx := e.Begin()
	defer tx.Commit()
	sr := e.Objects.SnapshotReader(tx)
	defer sr.Close()

	const workers = 8
	var start, done sync.WaitGroup
	start.Add(1)
	rows := make([]int, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			out, err := ev.Evaluate(sr, map[string]datum.Value{"who": datum.Str("kim")}, false, []uint64{1})
			if errs[w] = err; err == nil {
				rows[w] = len(out[1].Primary.Rows)
			}
		}()
	}
	start.Done()
	done.Wait()
	for w := range rows {
		if errs[w] != nil || rows[w] != 20 {
			t.Fatalf("worker %d: %d rows, error %v; want 20", w, rows[w], errs[w])
		}
	}
	if st := ev.Stats(); st.PlanBuilds < 1 || st.PlanBuilds > workers {
		t.Fatalf("%d plan builds for %d first evaluations", st.PlanBuilds, workers)
	}
	if text := ev.Nodes()[0].Plan; !strings.Contains(text, "Holding") {
		t.Fatalf("node keeps no plan:\n%s", text)
	}
}
