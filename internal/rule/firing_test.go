package rule_test

// Tests of the firing runner (firing.go): where firings run, and how
// their spans find their anchors on the transaction records.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/rule"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestEveryGoStatementIsInFiring: firing.go is the one place the
// package starts goroutines, so every concurrent firing goes through
// its runner.
func TestEveryGoStatementIsInFiring(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	inFiring := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if name == "firing.go" {
					inFiring++
				} else {
					t.Errorf("%s: go statement outside firing.go", fset.Position(g.Pos()))
				}
			}
			return true
		})
	}
	if inFiring == 0 {
		t.Fatal("no go statement found in firing.go: the walk saw nothing")
	}
}

// goid returns the calling goroutine's id, the number on the first line
// of its stack trace ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// firingEngine returns an engine with the Stock and Audit classes, one
// Stock object, and a no-op "noop" callback.
func firingEngine(t *testing.T) (*core.Engine, datum.OID) {
	t.Helper()
	e, _ := workload.MustEngine()
	t.Cleanup(func() { e.Close() })
	if err := workload.DefineBase(e); err != nil {
		t.Fatal(err)
	}
	oids, err := workload.SeedStocks(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
	return e, oids[0]
}

func mustRule(t *testing.T, e *core.Engine, def rule.Def) {
	t.Helper()
	if _, err := e.CreateRule(def); err != nil {
		t.Fatal(err)
	}
}

func modify(t *testing.T, e *core.Engine, tx *txn.Txn, oid datum.OID, price float64) {
	t.Helper()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(price)}); err != nil {
		t.Fatal(err)
	}
}

// TestWaveOfOneRunsInline: the action of a lone immediate firing runs
// on the goroutine of the operation that raised the event, which is
// suspended until the firing ends anyway.
func TestWaveOfOneRunsInline(t *testing.T) {
	e, oid := firingEngine(t)
	var ran string
	e.RegisterCall("where", func(*txn.Txn, map[string]datum.Value) error {
		ran = goid()
		return nil
	})
	mustRule(t, e, rule.Def{
		Name: "inline", Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "where"}},
		EC:     "immediate", CA: "immediate",
	})
	tx := e.Begin()
	modify(t, e, tx, oid, 7)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if here := goid(); ran != here {
		t.Fatalf("the action ran on goroutine %q, the modify on %q", ran, here)
	}
}

// TestSpanBinding checks, through real firings, the rule by which a
// firing span finds its parent: the innermost open span on the
// trigger's transaction or an ancestor's.
func TestSpanBinding(t *testing.T) {
	t.Run("CascadeNestsUnderOpenAction", func(t *testing.T) {
		// lvl1's action raises two create(Audit) signals. Each nests
		// under lvl1's action span: the first cascade's signal span
		// neither displaces the action span from its transaction nor,
		// once ended, takes the second cascade's place.
		e, oid := firingEngine(t)
		note := map[string]string{"note": "'1'"}
		mustRule(t, e, rule.Def{
			Name: "lvl1", Event: "modify(Stock)",
			Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit", Attrs: note},
				{Kind: rule.StepCreate, Class: "Audit", Attrs: note}},
			EC: "immediate", CA: "immediate",
		})
		mustRule(t, e, rule.Def{
			Name: "lvl2", Event: "create(Audit)",
			Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
			EC:     "immediate", CA: "immediate",
		})
		tx := e.Begin()
		modify(t, e, tx, oid, 7)
		tx.Commit()
		tree := e.Obs.Tracer().Last(1)[0]
		var act *obs.SpanSnapshot
		tree.Walk(func(n *obs.SpanSnapshot, _ int) {
			if n.Kind == "action" && n.Name == "lvl1" {
				act = n
			}
		})
		if tree.Kind != "signal" || tree.Txn != uint64(tx.ID()) || act == nil {
			t.Fatalf("tree = %+v, want a signal root on txn %d over lvl1's action", tree, tx.ID())
		}
		if len(act.Children) != 2 {
			t.Fatalf("lvl1's action has %d children, want the two cascaded signals: %+v", len(act.Children), act.Children)
		}
		for _, c := range act.Children {
			if c.Kind != "signal" || c.Txn != act.Txn || len(c.Children) != 2 {
				t.Fatalf("cascade = %+v, want a signal on txn %d with lvl2's cond and action", c, act.Txn)
			}
		}
	})

	t.Run("SecondSignalStartsNewRoot", func(t *testing.T) {
		// Two signals in one client transaction: the first tree has
		// ended before the second signal, so the second is a root.
		e, oid := firingEngine(t)
		mustRule(t, e, workload.AuditRuleDef("audit", "immediate", "immediate"))
		tx := e.Begin()
		modify(t, e, tx, oid, 7)
		if sp := tx.Span.Load(); sp == nil || !sp.Ended() {
			t.Fatalf("the first signal's span on the client transaction: %v, want ended", sp)
		}
		modify(t, e, tx, oid, 8)
		tx.Commit()
		trees := e.Obs.Tracer().Last(0)
		if len(trees) != 2 {
			t.Fatalf("%d firing trees, want one per signal: %+v", len(trees), trees)
		}
		for _, tree := range trees {
			if tree.Kind != "signal" || tree.Txn != uint64(tx.ID()) || tree.Depth() != 2 {
				t.Fatalf("trees = %+v, want two signal roots on txn %d, each over one cond and one action", trees, tx.ID())
			}
		}
	})

	t.Run("EndedSpanAnchorsNothing", func(t *testing.T) {
		// A deferred firing is queued under the signal span, which ends
		// when the modify returns; the deferred drain at commit then
		// roots a tree of its own instead of joining the ended one.
		e, oid := firingEngine(t)
		mustRule(t, e, workload.AuditRuleDef("audit", "deferred", "immediate"))
		tx := e.Begin()
		modify(t, e, tx, oid, 7)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		trees := e.Obs.Tracer().Last(0)
		if len(trees) != 2 {
			t.Fatalf("%d firing trees, want the signal's and the drain's: %+v", len(trees), trees)
		}
		drain, signal := trees[0], trees[1]
		if signal.Kind != "signal" || len(signal.Children) != 1 || signal.Children[0].Kind != "deferred-queue" {
			t.Fatalf("signal tree = %+v, want only the deferred-queue mark", signal)
		}
		if drain.Kind != "commit" || drain.Txn != uint64(tx.ID()) {
			t.Fatalf("drain tree = %+v, want a commit root on txn %d", drain, tx.ID())
		}
	})
}
