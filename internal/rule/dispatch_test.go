package rule

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datum"
	"repro/internal/query"
)

// guardedRule builds an unregistered rule whose only condition query
// carries the given WHERE conjuncts, filed as register would file it.
func guardedRule(t testing.TB, name string, ec Coupling, where string) *Rule {
	t.Helper()
	src := "select s from Stock s"
	if where != "" {
		src += " where " + where
	}
	q, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := &Rule{Name: name, EC: ec, Enabled: true, guards: query.Guards(q)}
	r.access = chooseAccess(r.guards)
	return r
}

// linearMatch is the specification of dispatchTable.match: a rule is
// triggered unless one of its guards rejects the bindings.
func linearMatch(rules []*Rule, args map[string]datum.Value) []string {
	var out []string
	for _, r := range rules {
		rejected := false
		for _, g := range r.guards {
			rejected = rejected || g.Rejects(args)
		}
		if !rejected {
			out = append(out, r.Name)
		}
	}
	sort.Strings(out)
	return out
}

func tableMatch(t *dispatchTable, args map[string]datum.Value) ([]string, int) {
	groups, filtered := t.match(args)
	var out []string
	for ec, rules := range groups {
		for _, r := range rules {
			if r.EC != Coupling(ec) {
				panic("rule in the wrong coupling group")
			}
			out = append(out, r.Name)
		}
	}
	sort.Strings(out)
	return out, filtered
}

var indexLiterals = []string{"0", "1", "2", "3", "2.5", "-1", "0.0", "9007199254740992", "9007199254740993",
	"'x'", "'y'", "true"}

func genWhere(rng *rand.Rand) string {
	lit := func() string { return indexLiterals[rng.Intn(len(indexLiterals))] }
	arg := func() string { return "event." + string(rune('a'+rng.Intn(3))) }
	op := func() string { return []string{"=", "<", "<=", ">", ">="}[rng.Intn(5)] }
	switch rng.Intn(8) {
	case 0:
		return "" // unguarded
	case 1:
		return "s.price > 1" // needs the row: unguarded
	case 2:
		return fmt.Sprintf("(%s = %s or %s > %s)", arg(), lit(), arg(), lit()) // no indexable shape
	case 3:
		return fmt.Sprintf("%s != %s", arg(), lit())
	case 4:
		return fmt.Sprintf("%s %s %s and %s %s %s", arg(), op(), lit(), arg(), op(), lit())
	case 5:
		return fmt.Sprintf("%s %s %s", lit(), op(), arg()) // flipped
	default:
		return fmt.Sprintf("%s %s %s", arg(), op(), lit())
	}
}

func genProbe(rng *rand.Rand) map[string]datum.Value {
	vals := []datum.Value{datum.Null(), datum.Int(0), datum.Int(1), datum.Int(2), datum.Int(3), datum.Float(2.5),
		datum.Float(-1), datum.Float(math.Copysign(0, -1)), datum.Float(math.NaN()), datum.Float(math.Inf(1)),
		datum.Int(9007199254740992), datum.Int(9007199254740993), datum.Float(9007199254740992),
		datum.Str("x"), datum.Str("y"), datum.Bool(true), datum.List(datum.Int(1)), datum.ID(7)}
	args := map[string]datum.Value{}
	for _, name := range []string{"a", "b", "c"} {
		if rng.Intn(6) != 0 {
			args[name] = vals[rng.Intn(len(vals))]
		}
	}
	return args
}

func TestDispatchIndexEqualsLinearScan(t *testing.T) {
	// The index may only prune rules some guard of theirs rejects: for
	// random rule sets and bindings — including NaN, the two zeros,
	// ints beyond float64's integer range, lists, nulls and missing
	// arguments — match returns exactly the linear scan's rules. Every
	// table along a random with/without history stays intact.
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		table := &dispatchTable{}
		var live []*Rule
		type version struct {
			table *dispatchTable
			rules []*Rule
		}
		var history []version
		for step := 0; step < 40; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				table = table.without(live[i])
				live = append(live[:i:i], live[i+1:]...)
			} else {
				r := guardedRule(t, fmt.Sprintf("r%02d", step), Coupling(rng.Intn(numCouplings)), genWhere(rng))
				table = table.with(r)
				live = append(live[:len(live):len(live)], r)
			}
			history = append(history, version{table, live})
		}
		for i := 0; i < 30; i++ {
			args := genProbe(rng)
			v := history[rng.Intn(len(history))]
			got, filtered := tableMatch(v.table, args)
			want := linearMatch(v.rules, args)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, bindings %v:\nindex  %v\nlinear %v", round, args, got, want)
			}
			if filtered != len(v.rules)-len(want) || v.table.size() != len(v.rules) {
				t.Fatalf("round %d: filtered %d, size %d for %d rules, %d matched",
					round, filtered, v.table.size(), len(v.rules), len(want))
			}
		}
		// Emptied again, a table holds nothing: empty buckets and
		// argument indexes are dropped, not left behind.
		for _, r := range live {
			table = table.without(r)
		}
		if table.size() != 0 || len(table.args) != 0 || len(table.scan) != 0 {
			t.Fatalf("round %d: emptied table = %+v", round, table)
		}
	}
}

func TestDispatchCandidatesAreFew(t *testing.T) {
	// 10 000 rules on distinct thresholds and 10 000 on distinct
	// symbols: a signal's candidates are the rules its value can
	// satisfy, found without visiting the rest.
	table := &dispatchTable{}
	const n = 10_000
	for i := 0; i < n; i++ {
		table = table.with(guardedRule(t, fmt.Sprintf("ge%05d", i), Separate, fmt.Sprintf("event.p >= %d", i)))
		table = table.with(guardedRule(t, fmt.Sprintf("eq%05d", i), Separate, fmt.Sprintf("event.sym = 'S%05d'", i)))
	}
	groups, filtered := table.match(map[string]datum.Value{"p": datum.Float(99.5), "sym": datum.Str("S00042")})
	if len(groups[Separate]) != 101 || filtered != 2*n-101 {
		t.Fatalf("matched %d, filtered %d; want 100 thresholds + 1 symbol", len(groups[Separate]), filtered)
	}
	allocs := testing.AllocsPerRun(100, func() {
		table.match(map[string]datum.Value{"p": datum.Float(-1), "sym": datum.Str("nope")})
	})
	if allocs > 4 { // the bindings map and the probe's key string
		t.Fatalf("a signal no rule can satisfy allocates %v times", allocs)
	}
}
