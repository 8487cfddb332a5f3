package workload

// First tests for the workload generators: the benchmark harness
// depends on two engines fed the same generator producing identical
// worlds (experiments compare configurations, so the workload itself
// must not be a variable), and on the generator knobs meaning what
// the experiment tables say they mean.

import (
	"fmt"
	"testing"

	"repro/internal/datum"
)

// TestSeedStocksDeterministic: two fresh engines seeded identically
// must hold identical Stock extents — same OIDs, symbols, and prices.
func TestSeedStocksDeterministic(t *testing.T) {
	type row struct {
		sym   string
		price float64
	}
	build := func() map[datum.OID]row {
		e, _ := MustEngine()
		defer e.Close()
		if err := DefineBase(e); err != nil {
			t.Fatal(err)
		}
		oids, err := SeedStocks(e, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(oids) != 50 {
			t.Fatalf("seeded %d stocks, want 50", len(oids))
		}
		out := map[datum.OID]row{}
		tx := e.Begin()
		defer tx.Commit()
		for _, oid := range oids {
			r, err := e.Get(tx, oid)
			if err != nil {
				t.Fatal(err)
			}
			out[oid] = row{r.Attrs["symbol"].AsString(), r.Attrs["price"].AsFloat()}
		}
		return out
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("extent sizes differ: %d vs %d", len(a), len(b))
	}
	for oid, ra := range a {
		if rb, ok := b[oid]; !ok || ra != rb {
			t.Fatalf("oid %v: %+v vs %+v", oid, ra, b[oid])
		}
	}
	// Symbols are schema'd to the seed index, not engine state.
	for oid, r := range a {
		var i int
		if _, err := fmt.Sscanf(r.sym, "S%05d", &i); err != nil {
			t.Fatalf("oid %v: malformed symbol %q", oid, r.sym)
		}
		if r.price != float64(i) {
			t.Fatalf("symbol %q has price %v, want %v", r.sym, r.price, float64(i))
		}
	}
}

// TestSharedConditionRulesOverlap: the overlap fraction controls how
// many rules share the single common condition text — the knob behind
// experiment C4's shared-node axis.
func TestSharedConditionRulesOverlap(t *testing.T) {
	for _, tc := range []struct {
		n       int
		overlap float64
		shared  int
	}{
		{10, 0, 0}, {10, 0.5, 5}, {10, 1, 10}, {7, 0.5, 3},
	} {
		defs := SharedConditionRules(tc.n, tc.overlap)
		if len(defs) != tc.n {
			t.Fatalf("n=%d overlap=%v: got %d defs", tc.n, tc.overlap, len(defs))
		}
		counts := map[string]int{}
		names := map[string]bool{}
		for _, d := range defs {
			if len(d.Condition) != 1 {
				t.Fatalf("rule %s has %d conditions", d.Name, len(d.Condition))
			}
			counts[d.Condition[0]]++
			if names[d.Name] {
				t.Fatalf("duplicate rule name %s", d.Name)
			}
			names[d.Name] = true
		}
		maxShared := 0
		distinct := 0
		for _, c := range counts {
			if c > maxShared {
				maxShared = c
			}
			if c == 1 {
				distinct++
			}
		}
		if tc.shared > 1 && maxShared != tc.shared {
			t.Fatalf("n=%d overlap=%v: largest shared group %d, want %d",
				tc.n, tc.overlap, maxShared, tc.shared)
		}
		if want := tc.n - tc.shared; distinct != want && !(tc.shared == 1 && distinct == tc.n) {
			t.Fatalf("n=%d overlap=%v: %d distinct conditions, want %d",
				tc.n, tc.overlap, distinct, want)
		}
	}
}

// TestCallRuleDefsShape: sibling rules all share the event and the
// callback, with unique names (the rule manager rejects duplicates).
func TestCallRuleDefsShape(t *testing.T) {
	defs := CallRuleDefs(16, "work")
	names := map[string]bool{}
	for _, d := range defs {
		if d.Event != "modify(Stock)" {
			t.Fatalf("rule %s on event %q", d.Name, d.Event)
		}
		if len(d.Action) != 1 || d.Action[0].Fn != "work" {
			t.Fatalf("rule %s action %+v", d.Name, d.Action)
		}
		if names[d.Name] {
			t.Fatalf("duplicate name %s", d.Name)
		}
		names[d.Name] = true
	}
}

// TestSpinDeterministic: Spin is the benchmark's unit of CPU work;
// it must be input-determined (identical across runs) and scale with
// the iteration count so "2x iters" means 2x work.
func TestSpinDeterministic(t *testing.T) {
	if Spin(1000) != Spin(1000) {
		t.Fatal("Spin is not deterministic")
	}
	if Spin(0) != 0 {
		t.Fatalf("Spin(0) = %d, want 0", Spin(0))
	}
	if Spin(999) == Spin(1000) {
		t.Fatal("Spin ignores its iteration count")
	}
}

// TestCascadeChainFires: the cascade generator must wire depth rules
// so one create at the head propagates to the tail class. Depth 8 is
// BenchmarkCascadeDepth's deepest, well inside the cascade bound.
func TestCascadeChainFires(t *testing.T) {
	for _, depth := range []int{4, 8} {
		t.Run(fmt.Sprint(depth), func(t *testing.T) { testCascadeChainFires(t, depth) })
	}
}

func testCascadeChainFires(t *testing.T, depth int) {
	e, _ := MustEngine()
	defer e.Close()
	head, err := CascadeChain(e, depth)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if _, err := e.Create(tx, head, map[string]datum.Value{"x": datum.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	defer tx.Commit()
	res, err := e.Query(tx, fmt.Sprintf("select c from C%d c", depth), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("cascade reached C%d with %d rows, want 1", depth, len(res.Rows))
	}
}
