package cond

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/query"
)

// Conjunct pools for the randomized conditions: event-only ones (the
// guard candidates: comparisons with literals and with each other,
// cross-kind ordering that the evaluator fails on, or/not around event
// terms, arithmetic) and ones that need the range variable.
var (
	eventConjuncts = []string{
		"event.a > %d", "event.a <= %d", "%d < event.a", "event.a = %d", "event.a != %d",
		"event.b = 'x'", "event.b = 'y'", "'x' < event.a", "event.b > 1",
		"(event.a = %d or event.b = 'x')", "not (event.a < %d)", "not (event.c = %d)",
		"event.a >= event.c", "event.a + 1 > %d", "(event.a > %d and event.c > %d)",
		"event.d = null", "abs(event.c) >= %d",
	}
	rowConjuncts = []string{"s.price > %d", "s.symbol = event.b", "s.price >= event.a", "s.price != %d"}
)

func genConjunct(rng *rand.Rand, pool []string) string {
	c := pool[rng.Intn(len(pool))]
	for strings.Contains(c, "%d") {
		c = strings.Replace(c, "%d", fmt.Sprint(rng.Intn(5)), 1)
	}
	return c
}

// genQuery returns one condition query: a plain select, an aggregate
// (one row even over an empty join) or a hand-built query without FROM
// (one row, WHERE never consulted). Only the first kind may have
// guards.
func genQuery(t *testing.T, rng *rand.Rand) *query.Query {
	var conj []string
	for n := 1 + rng.Intn(3); n > 0; n-- {
		pool := eventConjuncts
		if rng.Intn(3) == 0 {
			pool = rowConjuncts
		}
		conj = append(conj, genConjunct(rng, pool))
	}
	where := strings.Join(conj, " and ")
	switch rng.Intn(5) {
	case 0:
		return query.MustParse("select count(*) as n from Stock s where " + where)
	case 1:
		x, err := query.ParseExpr(genConjunct(rng, eventConjuncts))
		if err != nil {
			t.Fatal(err)
		}
		return &query.Query{Select: []query.SelectItem{{Expr: &query.Literal{Val: datum.Int(1)}, Alias: "one"}},
			Where: x, Limit: -1}
	default:
		return query.MustParse("select s from Stock s where " + where)
	}
}

func genArgs(rng *rand.Rand) map[string]datum.Value {
	vals := []datum.Value{datum.Null(), datum.Int(0), datum.Int(2), datum.Int(4), datum.Float(2.5),
		datum.Float(-1), datum.Str("x"), datum.Str("y"), datum.Bool(true)}
	args := map[string]datum.Value{}
	for _, name := range []string{"a", "b", "c", "d"} {
		if rng.Intn(5) != 0 {
			args[name] = vals[rng.Intn(len(vals))]
		}
	}
	return args
}

func TestRejectedConditionIsNeverSatisfied(t *testing.T) {
	// Differential soundness: whenever a guard rejects a signal, the
	// full condition evaluated by the tree-walk oracle is not satisfied.
	rng := rand.New(rand.NewSource(29))
	reader := stockReader()
	reader.add("Stock", 3, map[string]datum.Value{"symbol": datum.Str("x"), "price": datum.Float(3)})
	rejected, satisfied, failed := 0, 0, 0
	for round := 0; round < 400; round++ {
		var c Condition
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c.Queries = append(c.Queries, genQuery(t, rng))
		}
		e := New() // exec nil: query.Eval, the oracle
		guards := e.AddRule(1, c)
		for i := 0; i < 10; i++ {
			args := genArgs(rng)
			out, err := e.Evaluate(reader, args, false, []uint64{1})
			if err != nil {
				failed++ // a hard error fails the firing, guard or no guard
				continue
			}
			if out[1].Satisfied {
				satisfied++
			}
			for _, g := range guards {
				if !g.Rejects(args) {
					continue
				}
				rejected++
				if out[1].Satisfied {
					t.Fatalf("round %d: guard %s rejects %v, but %v is satisfied", round, g.Expr, args, c.Strings())
				}
				break
			}
		}
	}
	if rejected < 500 || satisfied < 100 || failed > 2000 {
		t.Fatalf("generator too weak: %d rejected, %d satisfied, %d failed of 4000", rejected, satisfied, failed)
	}
}

func TestGuardsLiveBesideNodes(t *testing.T) {
	e := New()
	shared := "select s from Stock s where s.symbol = 'XRX' and event.new_price >= 50"
	g1 := e.AddRule(1, mustCond(t, shared))
	g2 := e.AddRule(2, mustCond(t, shared, "select count(*) from Stock s where event.x = 1",
		"select s from Stock s where event.y < 3 and event.z = 'q'"))
	if len(g1) != 1 || len(g2) != 3 {
		t.Fatalf("guards = %d and %d, want 1 and 3 (the aggregate query has none)", len(g1), len(g2))
	}
	for _, n := range e.Nodes() {
		switch {
		case n.Query == mustCond(t, shared).Strings()[0]:
			if n.Refs != 2 || len(n.Guards) != 1 || n.Guards[0] != "(event.new_price >= 50)" {
				t.Fatalf("shared node = %+v", n)
			}
		case strings.Contains(n.Query, "count(*)"):
			if len(n.Guards) != 0 {
				t.Fatalf("aggregate node has guards: %+v", n)
			}
		default:
			if len(n.Guards) != 2 {
				t.Fatalf("node = %+v, want two guards", n)
			}
		}
	}
}
