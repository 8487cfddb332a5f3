package query

// Property tests: randomly generated single-class predicates are
// evaluated both by the engine (with and without index assistance)
// and by a brute-force reference; results must agree exactly.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datum"
)

// randPredicate builds a random predicate over s.price (float),
// s.volume (int), and s.sector (string), returning its text and a
// reference evaluator.
func randPredicate(rng *rand.Rand, depth int) (string, func(attrs map[string]datum.Value) bool) {
	if depth <= 0 || rng.Intn(3) == 0 {
		// Leaf comparison.
		switch rng.Intn(3) {
		case 0:
			limit := float64(rng.Intn(200))
			ops := []struct {
				text string
				fn   func(a, b float64) bool
			}{
				{"<", func(a, b float64) bool { return a < b }},
				{"<=", func(a, b float64) bool { return a <= b }},
				{">", func(a, b float64) bool { return a > b }},
				{">=", func(a, b float64) bool { return a >= b }},
				{"=", func(a, b float64) bool { return a == b }},
				{"!=", func(a, b float64) bool { return a != b }},
			}
			op := ops[rng.Intn(len(ops))]
			return fmt.Sprintf("s.price %s %g", op.text, limit),
				func(attrs map[string]datum.Value) bool {
					return op.fn(attrs["price"].AsFloat(), limit)
				}
		case 1:
			limit := int64(rng.Intn(100))
			return fmt.Sprintf("s.volume >= %d", limit),
				func(attrs map[string]datum.Value) bool {
					return attrs["volume"].AsInt() >= limit
				}
		default:
			sector := []string{"tech", "auto", "energy"}[rng.Intn(3)]
			return fmt.Sprintf("s.sector = '%s'", sector),
				func(attrs map[string]datum.Value) bool {
					return attrs["sector"].AsString() == sector
				}
		}
	}
	lText, lFn := randPredicate(rng, depth-1)
	rText, rFn := randPredicate(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s and %s)", lText, rText),
			func(a map[string]datum.Value) bool { return lFn(a) && rFn(a) }
	case 1:
		return fmt.Sprintf("(%s or %s)", lText, rText),
			func(a map[string]datum.Value) bool { return lFn(a) || rFn(a) }
	default:
		return fmt.Sprintf("not %s", lText),
			func(a map[string]datum.Value) bool { return !lFn(a) }
	}
}

func randDataset(rng *rand.Rand, n int, indexed bool) *memReader {
	m := newMemReader()
	if indexed {
		m.indexed["Stock.price"] = true
		m.indexed["Stock.volume"] = true
	}
	for i := 0; i < n; i++ {
		m.add("Stock", datum.OID(i+1), map[string]datum.Value{
			"price":  datum.Float(float64(rng.Intn(200))),
			"volume": datum.Int(int64(rng.Intn(100))),
			"sector": datum.Str([]string{"tech", "auto", "energy"}[rng.Intn(3)]),
		})
	}
	return m
}

func TestRandomPredicatesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		data := randDataset(rng, 40, trial%2 == 0)
		predText, ref := randPredicate(rng, 3)
		src := "select s from Stock s where " + predText
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: Parse(%q): %v", trial, src, err)
		}
		res, err := Eval(q, data, nil)
		if err != nil {
			t.Fatalf("trial %d: Eval(%q): %v", trial, src, err)
		}
		got := map[datum.OID]bool{}
		for _, r := range res.Rows {
			got[r[0].AsOID()] = true
		}
		for _, o := range data.classes["Stock"] {
			want := ref(o.row.Map())
			if got[o.oid] != want {
				t.Fatalf("trial %d: %q oid %v: got %v want %v (attrs %v)",
					trial, src, o.oid, got[o.oid], want, o.row.Map())
			}
		}
	}
}

func TestIndexAndScanAgree(t *testing.T) {
	// The same query must return identical rows with and without
	// index assistance (false positives re-filtered, no misses).
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		seed := rng.Int63()
		predText, _ := randPredicate(rand.New(rand.NewSource(seed)), 2)
		src := "select s from Stock s where " + predText
		collect := func(indexed bool) []datum.OID {
			data := randDataset(rand.New(rand.NewSource(seed)), 30, indexed)
			res, err := Eval(MustParse(src), data, nil)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			var out []datum.OID
			for _, r := range res.Rows {
				out = append(out, r[0].AsOID())
			}
			return out
		}
		a, b := collect(true), collect(false)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: %q indexed=%v scan=%v", trial, src, a, b)
		}
	}
}

func TestAggregatesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		data := randDataset(rng, 25, false)
		limit := float64(rng.Intn(200))
		src := fmt.Sprintf(
			"select count(*) as n, sum(s.price) as total, min(s.price) as lo, max(s.price) as hi from Stock s where s.price < %g", limit)
		res, err := Eval(MustParse(src), data, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var n int64
		var total, lo, hi float64
		first := true
		for _, o := range data.classes["Stock"] {
			p := o.row.Map()["price"].AsFloat()
			if p < limit {
				n++
				total += p
				if first || p < lo {
					lo = p
				}
				if first || p > hi {
					hi = p
				}
				first = false
			}
		}
		b := res.RowBindings(0)
		if b["n"].AsInt() != n {
			t.Fatalf("trial %d: count %d want %d", trial, b["n"].AsInt(), n)
		}
		if n > 0 {
			if b["total"].AsFloat() != total || b["lo"].AsFloat() != lo || b["hi"].AsFloat() != hi {
				t.Fatalf("trial %d: sum/min/max = %v/%v/%v want %v/%v/%v",
					trial, b["total"], b["lo"], b["hi"], total, lo, hi)
			}
		}
	}
}

func TestJoinAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 100; trial++ {
		m := newMemReader()
		nStocks, nHoldings := rng.Intn(10)+1, rng.Intn(15)
		sectors := []string{"a", "b", "c"}
		for i := 0; i < nStocks; i++ {
			m.add("Stock", datum.OID(i+1), map[string]datum.Value{
				"sym": datum.Str(fmt.Sprintf("S%d", i%4)), "sector": datum.Str(sectors[rng.Intn(3)]),
			})
		}
		for i := 0; i < nHoldings; i++ {
			m.add("Holding", datum.OID(100+i), map[string]datum.Value{
				"sym": datum.Str(fmt.Sprintf("S%d", rng.Intn(6))), "qty": datum.Int(int64(rng.Intn(10))),
			})
		}
		res, err := Eval(MustParse(
			"select s, h from Stock s, Holding h where s.sym = h.sym and h.qty > 2"), m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := 0
		for _, s := range m.classes["Stock"] {
			for _, h := range m.classes["Holding"] {
				if s.row.Map()["sym"].AsString() == h.row.Map()["sym"].AsString() &&
					h.row.Map()["qty"].AsInt() > 2 {
					want++
				}
			}
		}
		if len(res.Rows) != want {
			t.Fatalf("trial %d: join rows %d want %d", trial, len(res.Rows), want)
		}
	}
}
