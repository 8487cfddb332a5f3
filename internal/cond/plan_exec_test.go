// Tests for the pluggable execution engine: the evaluator runs
// conditions through the planner (the engine default) and must preserve
// the as-of-commit snapshot semantics of the tree-walk oracle
// (query.Eval) even when the planner picks an index access path. External test package: it
// drives a full engine, which links against cond itself.
package cond_test

import (
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/query"
)

func condEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	tx := e.Begin()
	err = e.DefineClass(tx, object.Class{
		Name: "Holding",
		Attrs: []object.AttrDef{
			{Name: "owner", Kind: datum.KindString, Indexed: true},
			{Name: "symbol", Kind: datum.KindString},
			{Name: "qty", Kind: datum.KindInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.DefineClass(tx, object.Class{
		Name: "Stock",
		Attrs: []object.AttrDef{
			{Name: "symbol", Kind: datum.KindString, Indexed: true},
			{Name: "price", Kind: datum.KindFloat},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return e
}

func addHolding(t *testing.T, e *core.Engine, owner, symbol string, qty int64) {
	t.Helper()
	tx := e.Begin()
	if _, err := e.Create(tx, "Holding", map[string]datum.Value{
		"owner": datum.Str(owner), "symbol": datum.Str(symbol), "qty": datum.Int(qty),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerExecPinnedSnapshot pins a snapshot reader, commits more
// matching rows afterwards, and checks that a condition evaluated
// through the planner — with the live index already holding the new
// entries — still returns exactly the pinned state, identically to
// the tree-walk.
func TestPlannerExecPinnedSnapshot(t *testing.T) {
	e := condEngine(t)
	addHolding(t, e, "kim", "XRX", 1)
	addHolding(t, e, "kim", "IBM", 2)
	for i := 0; i < 120; i++ {
		addHolding(t, e, "filler", "ZZZ", int64(i))
	}

	c, err := cond.ParseCondition([]string{"select h from Holding h where h.owner = 'kim'"})
	if err != nil {
		t.Fatal(err)
	}
	planner := cond.New(plan.Options{})
	planner.AddRule(1, c)

	// Pin the snapshot, THEN commit two more matching holdings. The
	// live owner index now has four 'kim' entries; the pinned reader
	// must surface only the two as-of rows.
	tx := e.Begin()
	sr := e.Objects.SnapshotReader(tx)
	defer func() { sr.Close(); tx.Commit() }()
	addHolding(t, e, "kim", "XRX", 3)
	addHolding(t, e, "kim", "GE", 4)

	// The planner takes the index path for this shape (cheap directed
	// check before trusting the main assertion).
	q := query.MustParse("select h from Holding h where h.owner = 'kim'")
	if text := plan.Build(q, sr, nil, plan.Options{}).Explain(); !strings.Contains(text, "index scan") {
		t.Fatalf("expected an index path:\n%s", text)
	}

	got, err := planner.Evaluate(sr, nil, false, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.Eval(q, sr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got[1].Satisfied || want.Empty() {
		t.Fatalf("condition unsatisfied: plan=%v treewalk=%v", got[1].Satisfied, !want.Empty())
	}
	if len(got[1].Primary.Rows) != 2 {
		t.Fatalf("pinned snapshot leaked later commits: %d rows, want 2", len(got[1].Primary.Rows))
	}
	if !want.Equal(got[1].Primary) {
		t.Fatalf("planner and tree-walk disagree on primary rows:\nwant %+v\ngot  %+v",
			want, got[1].Primary)
	}

	// A fresh snapshot sees all four.
	tx2 := e.Begin()
	sr2 := e.Objects.SnapshotReader(tx2)
	defer func() { sr2.Close(); tx2.Commit() }()
	after, err := planner.Evaluate(sr2, nil, false, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(after[1].Primary.Rows) != 4 {
		t.Fatalf("fresh snapshot rows = %d, want 4", len(after[1].Primary.Rows))
	}
}

// TestPlannerExecJoinConditionMatchesTreeWalk runs a join condition
// (the planner reorders it through the owner index) through the
// evaluator and the tree-walk on the same snapshot and requires
// identical outcomes, including the primary rows that drive action
// binding.
func TestPlannerExecJoinConditionMatchesTreeWalk(t *testing.T) {
	e := condEngine(t)
	tx := e.Begin()
	for i := 0; i < 6; i++ {
		if _, err := e.Create(tx, "Stock", map[string]datum.Value{
			"symbol": datum.Str(string(rune('A' + i))), "price": datum.Float(float64(40 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	addHolding(t, e, "kim", "B", 10)
	addHolding(t, e, "kim", "D", 20)
	addHolding(t, e, "lee", "B", 30)
	for i := 0; i < 100; i++ {
		addHolding(t, e, "filler", "ZZZ", int64(i))
	}

	c, err := cond.ParseCondition([]string{
		"select h, s from Holding h, Stock s where h.symbol = s.symbol and h.owner = event.who",
		"select s from Stock s where s.price >= event.floor",
	})
	if err != nil {
		t.Fatal(err)
	}
	planner := cond.New(plan.Options{})
	planner.AddRule(7, c)

	for _, args := range []map[string]datum.Value{
		{"who": datum.Str("kim"), "floor": datum.Float(41)},
		{"who": datum.Str("lee"), "floor": datum.Float(41)},
		{"who": datum.Str("kim"), "floor": datum.Float(1000)}, // second query empty
		{"who": datum.Str("nobody"), "floor": datum.Float(0)}, // first query empty
	} {
		rtx := e.Begin()
		sr := e.Objects.SnapshotReader(rtx)
		got, gerr := planner.Evaluate(sr, args, false, []uint64{7})
		// The tree-walk's primary rows: the first query's, nil unless
		// every query returns a row.
		var want *query.Result
		var werr error
		for i, q := range c.Queries {
			res, err := query.Eval(q, sr, args)
			if werr = err; err != nil || res.Empty() {
				want = nil
				break
			}
			if i == 0 {
				want = res
			}
		}
		sr.Close()
		rtx.Commit()
		if gerr != nil || werr != nil {
			t.Fatalf("evaluate: plan=%v treewalk=%v", gerr, werr)
		}
		if got[7].Satisfied != (want != nil) {
			t.Fatalf("args %v: satisfied plan=%v treewalk=%v", args, got[7].Satisfied, want != nil)
		}
		if !want.Equal(got[7].Primary) {
			t.Fatalf("args %v: primary rows differ\nwant %+v\ngot  %+v", args, want, got[7].Primary)
		}
	}
}
