package plan

import (
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datum"
	"repro/internal/query"
)

// fakeReader is a test double for query.Reader + Catalog +
// RangeScanner over an in-memory class map. Its index can be made to
// lie: LookupRange may return extra candidates (false positives), or
// report ok=false even though the catalog advertised the index (a
// vanished index). Counters are atomic: parallel plan stages probe
// and fetch from worker goroutines.
type fakeReader struct {
	classes map[string][]cand
	indexes map[string]bool        // "Class.attr" has an index
	lies    map[string][]datum.OID // extra OIDs LookupRange returns for "Class.attr"
	vanish  bool                   // LookupRange always answers ok=false

	scans, lookups, fetches atomic.Int64
	scanned                 sync.Map // class -> struct{}: extents visited by any scan
}

func newFake() *fakeReader {
	return &fakeReader{
		classes: map[string][]cand{},
		indexes: map[string]bool{},
		lies:    map[string][]datum.OID{},
	}
}

func (f *fakeReader) add(class string, oid datum.OID, attrs map[string]datum.Value) {
	rows := append(f.classes[class], cand{OID: oid, Row: datum.RowOf(attrs)})
	sort.Slice(rows, func(a, b int) bool { return rows[a].OID < rows[b].OID })
	f.classes[class] = rows
}

func (f *fakeReader) index(class, attr string) { f.indexes[class+"."+attr] = true }

func (f *fakeReader) ScanClass(class string, fn func(datum.OID, datum.Row) bool) error {
	f.scans.Add(1)
	f.scanned.Store(class, struct{}{})
	for _, r := range f.classes[class] {
		if !fn(r.OID, r.Row) {
			break
		}
	}
	return nil
}

// PinRanges cuts the class the way the store does: at most n ranges of
// about equal row count.
func (f *fakeReader) PinRanges(class string, n int) (uint64, []datum.OID, func()) {
	rows := f.classes[class]
	n = min(n, len(rows))
	var cuts []datum.OID
	for k := 1; k < n; k++ {
		cuts = append(cuts, rows[k*len(rows)/n].OID)
	}
	return 1, cuts, func() {}
}

func (f *fakeReader) ScanClassRange(class string, lo, hi datum.OID, _ uint64, fn func(datum.OID, datum.Row) bool) error {
	f.scans.Add(1)
	f.scanned.Store(class, struct{}{})
	for _, r := range f.classes[class] {
		if r.OID < lo || hi != 0 && r.OID >= hi {
			continue
		}
		if !fn(r.OID, r.Row) {
			break
		}
	}
	return nil
}

// inRange mimics a btree probe: rows whose attr value falls in
// [lo, hi] under datum.Compare. Missing and null attrs have no index
// entry; cross-kind values never match the bounds (and would be
// rejected by the residual anyway).
func (f *fakeReader) inRange(class, attr string, lo, hi *datum.Value, loInc, hiInc bool) []datum.OID {
	var out []datum.OID
	for _, r := range f.classes[class] {
		v, ok := r.Row.Get(attr)
		if !ok || v.IsNull() {
			continue
		}
		if lo != nil {
			c, err := datum.Compare(v, *lo)
			if err != nil || c < 0 || (c == 0 && !loInc) {
				continue
			}
		}
		if hi != nil {
			c, err := datum.Compare(v, *hi)
			if err != nil || c > 0 || (c == 0 && !hiInc) {
				continue
			}
		}
		out = append(out, r.OID)
	}
	return out
}

func (f *fakeReader) LookupRange(class, attr string, lo, hi *datum.Value, loInc, hiInc bool) ([]datum.OID, bool) {
	key := class + "." + attr
	if f.vanish || !f.indexes[key] {
		return nil, false
	}
	f.lookups.Add(1)
	oids := f.inRange(class, attr, lo, hi, loInc, hiInc)
	// Inject the configured false positives, then restore the btree
	// contract: sorted, deduplicated candidates.
	oids = append(oids, f.lies[key]...)
	sort.Slice(oids, func(a, b int) bool { return oids[a] < oids[b] })
	dedup := oids[:0]
	for i, o := range oids {
		if i == 0 || o != oids[i-1] {
			dedup = append(dedup, o)
		}
	}
	return dedup, true
}

func (f *fakeReader) Fetch(oid datum.OID) (string, datum.Row, bool) {
	f.fetches.Add(1)
	for class, rows := range f.classes {
		for _, r := range rows {
			if r.OID == oid {
				return class, r.Row, true
			}
		}
	}
	return "", datum.Row{}, false
}

func (f *fakeReader) ExtentEstimate(class string) int { return len(f.classes[class]) }

func (f *fakeReader) HasIndex(class, attr string) bool { return f.indexes[class+"."+attr] }

func (f *fakeReader) IndexEstimate(class, attr string, lo, hi *datum.Value, loInc, hiInc bool, limit int) (int, bool) {
	if !f.indexes[class+"."+attr] {
		return 0, false
	}
	n := len(f.inRange(class, attr, lo, hi, loInc, hiInc))
	if n > limit {
		n = limit
	}
	return n, true
}

// checkAll runs src through the tree-walk oracle and through every
// admissible plan — the default build, each option-constrained build,
// a prepared build (no arguments at build time), and the full
// enumeration — asserting bit-identical results, first under args, then
// under each of argSets(args) with every plan built once. It returns
// the oracle result under args for additional direct assertions.
func checkAll(t *testing.T, src string, r query.Reader, args map[string]datum.Value) *query.Result {
	t.Helper()
	q := query.MustParse(src)
	want, werr := query.Eval(q, r, args)

	cat, _ := r.(Catalog)
	// forcePar removes the cardinality floor so even these tiny
	// fixtures exercise the parallel scan/join/aggregate paths.
	forcePar := func(n int) Options { return Options{Parallelism: n, ParallelThreshold: -1} }
	plans := []*Plan{
		Build(q, cat, args, Options{}),
		Build(q, cat, args, Options{DisableIndex: true}),
		Build(q, cat, args, Options{DisableHash: true}),
		Build(q, cat, args, Options{DisableIndex: true, DisableHash: true}),
		Build(q, cat, args, Options{ForceOrder: true}),
		Build(q, nil, args, Options{}), // no statistics
		Build(q, cat, args, forcePar(4)),
		Build(q, cat, args, Options{Parallelism: 4, ParallelThreshold: -1, DisableIndex: true}),
		Build(q, cat, args, Options{Parallelism: 2, ParallelThreshold: -1, DisableHash: true}),
		Build(q, cat, args, Options{Parallelism: 8, ParallelThreshold: -1, ForceOrder: true}),
		Build(q, nil, args, forcePar(3)), // parallel without statistics
		Build(q, cat, nil, Options{}),    // prepared: arguments bound only at execution
	}
	plans = append(plans, Enumerate(q, cat, args, Options{})...)
	plans = append(plans, Enumerate(q, cat, args, forcePar(4))...)

	for i, p := range plans {
		got, gerr := p.Execute(r, args)
		if werr != nil {
			if gerr == nil {
				t.Fatalf("plan %d: oracle failed (%v) but plan succeeded\n%s", i, werr, p.Explain())
			}
			continue
		}
		if gerr != nil {
			t.Fatalf("plan %d: %v\n%s", i, gerr, p.Explain())
		}
		if !want.Equal(got) {
			t.Fatalf("plan %d diverges from tree-walk\nquery: %s\nwant: %+v\ngot:  %+v\n%s",
				i, src, want, got, p.Explain())
		}
	}
	// The engine's one-call path.
	if werr == nil {
		got, err := Run(q, r, args, Options{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !want.Equal(got) {
			t.Fatalf("Run diverges from tree-walk\nwant: %+v\ngot:  %+v", want, got)
		}
	}
	sets, strict := argSets(args)
	for k, set := range sets[1:] {
		exp, experr := query.Eval(q, r, set)
		for i, p := range plans {
			got, gerr := p.Execute(r, set)
			switch {
			case experr != nil || gerr != nil:
				if strict[k+1] && (experr == nil) != (gerr == nil) {
					t.Fatalf("plan %d under %v: oracle error %v, plan error %v\n%s", i, set, experr, gerr, p.Explain())
				}
			case !exp.Equal(got):
				t.Fatalf("plan %d diverges from tree-walk under %v\nquery: %s\nwant: %+v\ngot:  %+v\n%s",
					i, set, src, exp, got, p.Explain())
			}
		}
	}
	return want
}

// argSets returns args followed by variants of it, to execute one plan
// under several bindings: other values of the same kinds, the first
// argument missing, null, and of another kind. Kinds decide whether an
// operator fails, so a failure must be the oracle's (strict) under all
// but the last; under that one a plan may fail where the oracle stops
// at another conjunct first, or the reverse (see Evaluation order in
// the package comment).
func argSets(args map[string]datum.Value) (sets []map[string]datum.Value, strict []bool) {
	sets, strict = []map[string]datum.Value{args}, []bool{true}
	if len(args) == 0 {
		return sets, strict
	}
	other, first := maps.Clone(args), ""
	for k, v := range args {
		if first == "" || k < first {
			first = k
		}
		switch v.Kind() {
		case datum.KindInt:
			other[k] = datum.Int(v.AsInt() + 1)
		case datum.KindFloat:
			other[k] = datum.Float(v.AsFloat() + 0.5)
		case datum.KindString:
			other[k] = datum.Str(v.AsString() + "a")
		case datum.KindOID:
			other[k] = datum.ID(v.AsOID() + 1)
		}
	}
	missing, null, wrong := maps.Clone(args), maps.Clone(args), maps.Clone(args)
	delete(missing, first)
	null[first], wrong[first] = datum.Null(), datum.Str("a")
	if args[first].Kind() == datum.KindString {
		wrong[first] = datum.Int(1)
	}
	return append(sets, other, missing, null, wrong), append(strict, true, true, true, false)
}

func stockFake() *fakeReader {
	f := newFake()
	f.index("Stock", "price")
	for i, price := range []float64{10, 20, 30, 40, 50} {
		f.add("Stock", datum.OID(i+1), map[string]datum.Value{
			"symbol": datum.Str(string(rune('A' + i))),
			"price":  datum.Float(price),
		})
	}
	return f
}

func TestLyingIndexFalsePositivesRefiltered(t *testing.T) {
	f := stockFake()
	f.add("Bond", 7, map[string]datum.Value{"price": datum.Float(30)})
	// The index lies three ways: a live Stock whose price does not
	// match (OID 2, price 20), a dangling OID, and an object of
	// another class whose attribute would match.
	f.lies["Stock.price"] = []datum.OID{2, 7, 99}

	got := checkAll(t, "select s from Stock s where s.price = 30", f, nil)
	if len(got.Rows) != 1 || !datum.Equal(got.Rows[0][0], datum.ID(3)) {
		t.Fatalf("rows = %+v, want exactly #3", got.Rows)
	}
	if f.lookups.Load() == 0 {
		t.Fatal("index never probed: the lying-index test exercised nothing")
	}

	// The default plan with statistics must actually take the index
	// path (5-row extent, selective equality).
	q := query.MustParse("select s from Stock s where s.price = 30")
	p := Build(q, f, nil, Options{})
	if p.steps[0].access != accessIndex {
		t.Fatalf("default plan access = %v, want index scan\n%s", p.steps[0].access, p.Explain())
	}
}

func TestVanishedIndexDegradesToExtentScan(t *testing.T) {
	f := stockFake()
	f.vanish = true // catalog still advertises the index; probes fail

	got := checkAll(t, "select s from Stock s where s.price >= 40", f, nil)
	if len(got.Rows) != 2 {
		t.Fatalf("rows = %+v, want #4 and #5", got.Rows)
	}

	q := query.MustParse("select s from Stock s where s.price >= 40")
	p := Build(q, f, nil, Options{})
	if p.steps[0].access != accessIndex {
		t.Fatalf("plan should still choose the index (the catalog lied): %v", p.steps[0].access)
	}
	f.scans.Store(0)
	res, err := p.Execute(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || f.scans.Load() == 0 {
		t.Fatalf("rows = %d scans = %d; want a degraded extent scan with 2 rows", len(res.Rows), f.scans.Load())
	}
}

// joinFake builds two classes for join tests; keys go in as raw
// values so callers control nulls, kinds, and duplicates.
func joinFake(sKeys, hKeys []datum.Value) *fakeReader {
	f := newFake()
	f.index("S", "k")
	for i, v := range sKeys {
		attrs := map[string]datum.Value{"tag": datum.Int(int64(i))}
		if v.Kind() != datum.KindList { // KindList marks "attribute absent"
			attrs["k"] = v
		}
		f.add("S", datum.OID(i+1), attrs)
	}
	for i, v := range hKeys {
		attrs := map[string]datum.Value{"tag": datum.Int(int64(100 + i))}
		if v.Kind() != datum.KindList {
			attrs["k"] = v
		}
		f.add("H", datum.OID(i+101), attrs)
	}
	return f
}

var absent = datum.List() // sentinel: leave the attribute off the row

func TestJoinEdgeCases(t *testing.T) {
	const join = "select s, h from S s, H h where s.k = h.k"
	cases := []struct {
		name   string
		s, h   []datum.Value
		nTuple int
	}{
		{"both empty", nil, nil, 0},
		{"empty build side", nil, []datum.Value{datum.Int(1)}, 0},
		{"empty probe side", []datum.Value{datum.Int(1)}, nil, 0},
		{"null keys never join", []datum.Value{datum.Null(), datum.Int(1)}, []datum.Value{datum.Null(), datum.Int(2)}, 0},
		{"missing keys never join", []datum.Value{absent, datum.Int(3)}, []datum.Value{absent, datum.Int(3)}, 1},
		{"duplicate keys multiply", []datum.Value{datum.Int(7), datum.Int(7)}, []datum.Value{datum.Int(7), datum.Int(7), datum.Int(7)}, 6},
		{"int and float keys cross-match", []datum.Value{datum.Int(2)}, []datum.Value{datum.Float(2)}, 1},
	}
	// stagePlan picks the shape the edge cases are about — S's extent
	// as the outer stage, H hashed as the inner — at a given worker
	// count. Enumerated, because the cost model will not choose a hash
	// build over a near-empty extent.
	stagePlan := func(src string, f *fakeReader, workers int) *Plan {
		t.Helper()
		for _, p := range Enumerate(query.MustParse(src), f, nil, Options{Parallelism: workers, ParallelThreshold: -1}) {
			if s0, s1 := p.steps[0], p.steps[1]; s0.from.Class == "S" && s0.access == accessExtent && s1.access == accessHash {
				return p
			}
		}
		t.Fatal("no S -> hash H plan enumerated")
		return nil
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := joinFake(tc.s, tc.h)
			got := checkAll(t, join, f, nil)
			if len(got.Rows) != tc.nTuple {
				t.Fatalf("join rows = %d, want %d: %+v", len(got.Rows), tc.nTuple, got.Rows)
			}
			for _, workers := range []int{1, 4} {
				f.scanned.Delete("H")
				res, err := stagePlan(join, f, workers).Execute(f, nil)
				if err != nil || !got.Equal(res) {
					t.Fatalf("workers=%d: %+v (%v), want %+v", workers, res, err, got)
				}
				// An empty outer skips the inner hash build entirely.
				if _, built := f.scanned.Load("H"); built != (len(tc.s) > 0) {
					t.Fatalf("workers=%d: H build scanned = %v with %d outer rows", workers, built, len(tc.s))
				}
			}
		})
	}

	// A hard error in the inner stage's residual is reported at every
	// worker count once an outer row reaches it — and, like the build,
	// never evaluated behind an empty outer.
	const poisoned = "select s, h from S s, H h where s.k = h.k and 1 / (h.tag - h.tag) > 0"
	keys := make([]datum.Value, 200) // > joinChunk outer rows: the N-worker probe really fans out
	for i := range keys {
		keys[i] = datum.Int(int64(i % 5))
	}
	for _, workers := range []int{1, 4} {
		f := joinFake(keys, keys[:5])
		if _, err := stagePlan(poisoned, f, workers).Execute(f, nil); err == nil {
			t.Fatalf("workers=%d: inner-stage division by zero was swallowed", workers)
		}
		f = joinFake(nil, keys[:5])
		if res, err := stagePlan(poisoned, f, workers).Execute(f, nil); err != nil || len(res.Rows) != 0 {
			t.Fatalf("workers=%d: empty outer must not reach the inner stage: %+v (%v)", workers, res, err)
		}
	}
}

func TestHashKeyPrecisionCollision(t *testing.T) {
	// 2^53 and 2^53+1 are distinct int64s with the same float64 image,
	// so they land in the same hash bucket (datum keys encode numerics
	// through float64). The residual equality compares int/int exactly
	// and must keep them apart.
	big := int64(1) << 53
	f := joinFake(
		[]datum.Value{datum.Int(big), datum.Int(big + 1)},
		[]datum.Value{datum.Int(big), datum.Float(float64(big))},
	)
	got := checkAll(t, "select s.tag, h.tag from S s, H h where s.k = h.k", f, nil)
	// Int(2^53) matches both H rows; Int(2^53+1) vs Float(2^53) also
	// matches (cross-kind comparison goes through float64, which
	// rounds). Only the exact int/int pair Int(2^53+1) = Int(2^53)
	// must NOT match.
	want := 3
	if len(got.Rows) != want {
		t.Fatalf("rows = %d, want %d: %+v", len(got.Rows), want, got.Rows)
	}
	for _, r := range got.Rows {
		if r[0].AsInt() == 1 && r[1].AsInt() == 100 {
			t.Fatalf("collision leaked: Int(2^53+1) joined Int(2^53): %+v", got.Rows)
		}
	}
}

func TestIdentityPinEdgeCases(t *testing.T) {
	f := stockFake()
	f.add("Bond", 7, map[string]datum.Value{"price": datum.Float(1)})
	const pin = "select s.symbol from Stock s where s = event.target"
	cases := []struct {
		name string
		args map[string]datum.Value
		rows int
	}{
		{"missing event arg", nil, 0},
		{"non-oid pin value", map[string]datum.Value{"target": datum.Int(3)}, 0},
		{"dangling oid", map[string]datum.Value{"target": datum.ID(999)}, 0},
		{"wrong class", map[string]datum.Value{"target": datum.ID(7)}, 0},
		{"live oid", map[string]datum.Value{"target": datum.ID(3)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkAll(t, pin, f, tc.args)
			if len(got.Rows) != tc.rows {
				t.Fatalf("rows = %d, want %d", len(got.Rows), tc.rows)
			}
		})
	}
}

func TestAggregateEdgeCases(t *testing.T) {
	f := newFake()
	const agg = "select count(*) as n, sum(s.x) as t, avg(s.x) as a, min(s.x) as lo, max(s.x) as hi from S s"

	// Empty input: count 0, sum 0, avg/min/max null.
	got := checkAll(t, agg, f, nil)
	want := []datum.Value{datum.Int(0), datum.Int(0), datum.Null(), datum.Null(), datum.Null()}
	if !slices.EqualFunc(got.Rows[0], want, datum.Identical) {
		t.Fatalf("empty aggregate = %+v, want %+v", got.Rows[0], want)
	}

	// Nulls and missing values are skipped; duplicates count.
	f.add("S", 1, map[string]datum.Value{"x": datum.Int(4)})
	f.add("S", 2, map[string]datum.Value{"x": datum.Null()})
	f.add("S", 3, map[string]datum.Value{})
	f.add("S", 4, map[string]datum.Value{"x": datum.Int(4)})
	f.add("S", 5, map[string]datum.Value{"x": datum.Int(10)})
	got = checkAll(t, agg, f, nil)
	want = []datum.Value{datum.Int(5), datum.Int(18), datum.Float(6), datum.Int(4), datum.Int(10)}
	if !slices.EqualFunc(got.Rows[0], want, datum.Identical) {
		t.Fatalf("aggregate = %+v, want %+v", got.Rows[0], want)
	}

	// Aggregate over a join with an empty side stays a single row.
	got = checkAll(t, "select count(*) as n from S s, H h where s.x = h.x", f, nil)
	if len(got.Rows) != 1 || !datum.Equal(got.Rows[0][0], datum.Int(0)) {
		t.Fatalf("join aggregate over empty side = %+v", got.Rows)
	}
}

func TestOrderByAndLimitMatchOracle(t *testing.T) {
	f := stockFake()
	checkAll(t, "select s.symbol, s.price from Stock s order by s.price desc limit 3", f, nil)
	checkAll(t, "select s.symbol from Stock s where s.price > 15 order by s.symbol", f, nil)
	checkAll(t, "select s, h from Stock s, Stock h where s.price <= h.price order by h.price desc, s.price limit 7", f, nil)
}

// TestComputedStringsMatchOracle: a string computed per row is a new
// allocation on the oracle's side and on every plan's, so the
// differential comparison must read strings by content
// (Result.Equal), not by address as reflect.DeepEqual would.
func TestComputedStringsMatchOracle(t *testing.T) {
	f := stockFake()
	got := checkAll(t, "select lower(s.symbol) as l, s.price from Stock s where s.price >= 20 order by s.price", f, nil)
	if len(got.Rows) != 4 || got.Rows[0][0].AsString() != "b" {
		t.Fatalf("rows = %v", got.Rows)
	}
	again, err := Run(query.MustParse("select lower(s.symbol) as l, s.price from Stock s where s.price >= 20 order by s.price"), f, nil, Options{})
	if err != nil || !got.Equal(again) {
		t.Fatalf("a second run differs: %v (%v)", again, err)
	}
	if reflect.DeepEqual(got, again) {
		t.Fatal("computed strings share memory across runs; the case no longer tests content comparison")
	}
}

func TestFromlessQueryEmitsOneRow(t *testing.T) {
	// The parser requires FROM, but rule internals may hand-build
	// queries; the oracle emits one row without consulting WHERE, and
	// the executor is deliberately bug-compatible.
	q := &query.Query{
		Select: []query.SelectItem{{Expr: &query.EventRef{Name: "x"}}},
		Where:  &query.Literal{Val: datum.Bool(false)},
		Limit:  -1,
	}
	f := newFake()
	args := map[string]datum.Value{"x": datum.Int(42)}
	want, err := query.Eval(q, f, args)
	if err != nil {
		t.Fatal(err)
	}
	// Zero stages at any worker setting: the seed tuple is the row.
	for _, opt := range []Options{{}, {Parallelism: 1}, {Parallelism: 8, ParallelThreshold: -1}} {
		got, err := Build(q, f, args, opt).Execute(f, args)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("%+v: want %+v, got %+v", opt, want, got)
		}
		if len(got.Rows) != 1 {
			t.Fatalf("%+v: FROM-less query rows = %d, want 1", opt, len(got.Rows))
		}
	}
}

// goroutineProbe samples the goroutine count from inside the reader
// calls an executing plan makes.
type goroutineProbe struct {
	*fakeReader
	peak int
}

func (g *goroutineProbe) sample() { g.peak = max(g.peak, runtime.NumGoroutine()) }

func (g *goroutineProbe) ScanClass(class string, fn func(datum.OID, datum.Row) bool) error {
	g.sample()
	return g.fakeReader.ScanClass(class, fn)
}

func (g *goroutineProbe) LookupRange(class, attr string, lo, hi *datum.Value, loInc, hiInc bool) ([]datum.OID, bool) {
	g.sample()
	return g.fakeReader.LookupRange(class, attr, lo, hi, loInc, hiInc)
}

func (g *goroutineProbe) Fetch(oid datum.OID) (string, datum.Row, bool) {
	g.sample()
	return g.fakeReader.Fetch(oid)
}

// TestInlinePlanStartsNoGoroutine: a plan whose every stage has one
// worker — what the cardinality gate gives a rule condition — runs
// wholly on the caller: index probe, hash build and probe, extent
// join and the aggregate tail start no goroutine.
func TestInlinePlanStartsNoGoroutine(t *testing.T) {
	g := &goroutineProbe{fakeReader: saaFake(520)}
	args := map[string]datum.Value{"owner": datum.Str("ownerc")}
	for _, src := range []string{
		"select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner",
		"select count(*) as n, sum(h.qty) as q from Stock s, Holding h, Stock u where s.symbol = h.symbol and u.price <= s.price",
	} {
		q := query.MustParse(src)
		for _, opt := range []Options{{}, {Parallelism: 1, ParallelThreshold: -1}, {DisableIndex: true}} {
			p := Build(q, g, args, opt)
			if p.maxPar() != 1 {
				t.Fatalf("fixture plan is not all-inline:\n%s", p.Explain())
			}
			g.peak = 0
			base := runtime.NumGoroutine()
			if _, err := p.Execute(g, args); err != nil {
				t.Fatal(err)
			}
			if g.peak == 0 || g.peak > base {
				t.Fatalf("goroutines during Execute peaked at %d, baseline %d\n%s", g.peak, base, p.Explain())
			}
		}
	}
}

// saaFake models the SAA benchmark shape: a small Stock class and a
// large Holding class with a selective owner index.
func saaFake(holdings int) *fakeReader {
	f := newFake()
	f.index("Stock", "symbol")
	f.index("Holding", "owner")
	for i := 0; i < 20; i++ {
		f.add("Stock", datum.OID(i+1), map[string]datum.Value{
			"symbol": datum.Str("SYM" + string(rune('A'+i))),
			"price":  datum.Float(float64(10 + i)),
		})
	}
	for i := 0; i < holdings; i++ {
		f.add("Holding", datum.OID(1000+i), map[string]datum.Value{
			"owner":  datum.Str("owner" + string(rune('a'+i%26))),
			"symbol": datum.Str("SYM" + string(rune('A'+i%20))),
			"qty":    datum.Int(int64(i)),
		})
	}
	return f
}

func TestCostModelReordersSelectiveJoin(t *testing.T) {
	f := saaFake(520)
	const src = "select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner"
	args := map[string]datum.Value{"owner": datum.Str("ownerc")}

	q := query.MustParse(src)
	p := Build(q, f, args, Options{})
	if p.steps[0].from.Class != "Holding" || p.steps[0].access != accessIndex {
		t.Fatalf("statistics should drive Holding-first via the owner index:\n%s", p.Explain())
	}
	if p.steps[1].from.Class != "Stock" || p.steps[1].access == accessExtent {
		t.Fatalf("inner Stock should not be a bare extent scan:\n%s", p.Explain())
	}

	// Without a catalog the planner keeps the syntactic order.
	p = Build(q, nil, args, Options{})
	if p.steps[0].from.Class != "Stock" {
		t.Fatalf("no-statistics plan must keep syntactic order:\n%s", p.Explain())
	}
	// ForceOrder pins the syntactic order even with statistics.
	p = Build(q, f, args, Options{ForceOrder: true})
	if p.steps[0].from.Class != "Stock" {
		t.Fatalf("ForceOrder ignored:\n%s", p.Explain())
	}
	// DisableIndex forbids every index access.
	p = Build(q, f, args, Options{DisableIndex: true})
	for _, s := range p.steps {
		if s.access == accessIndex || s.access == accessPin {
			t.Fatalf("DisableIndex produced %v:\n%s", s.access, p.Explain())
		}
	}

	got := checkAll(t, src, f, args)
	if len(got.Rows) == 0 {
		t.Fatal("selective join found no rows; fixture is broken")
	}
}

func TestEnumerateCoversAccessPathsAndOrders(t *testing.T) {
	f := saaFake(60)
	q := query.MustParse("select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner")
	plans := Enumerate(q, f, map[string]datum.Value{"owner": datum.Str("ownera")}, Options{})
	if len(plans) < 4 {
		t.Fatalf("enumeration too small: %d plans", len(plans))
	}
	var sawHash, sawIndex, sawHoldingFirst, sawStockFirst bool
	for _, p := range plans {
		for _, s := range p.steps {
			switch s.access {
			case accessHash:
				sawHash = true
			case accessIndex:
				sawIndex = true
			}
		}
		if p.steps[0].from.Class == "Holding" {
			sawHoldingFirst = true
		} else {
			sawStockFirst = true
		}
	}
	if !sawHash || !sawIndex || !sawHoldingFirst || !sawStockFirst {
		t.Fatalf("enumeration misses shapes: hash=%v index=%v holdingFirst=%v stockFirst=%v",
			sawHash, sawIndex, sawHoldingFirst, sawStockFirst)
	}
}

func TestExplainOutput(t *testing.T) {
	f := saaFake(520)
	q := query.MustParse("select s.symbol, h.qty from Stock s, Holding h " +
		"where s.symbol = h.symbol and h.owner = event.owner and h.qty > 3 " +
		"order by h.qty desc limit 5")
	text := Build(q, f, map[string]datum.Value{"owner": datum.Str("ownerb")}, Options{}).Explain()
	for _, want := range []string{
		"plan (cost=", "statistics", "index scan", "Holding", "filter:",
		"canonical sort", "order by", "limit 5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, text)
		}
	}
	// No-statistics explain says so.
	text = Build(q, nil, nil, Options{}).Explain()
	if !strings.Contains(text, "no statistics") {
		t.Fatalf("explain should flag missing statistics:\n%s", text)
	}
}

// TestConjunctEvaluationOrder pins the rule the package comment states:
// the order in which a WHERE clause's conjuncts are evaluated is
// unspecified, and a query fails only if a conjunct that is evaluated
// fails. One query, three conjuncts — a division by event.zero on s, a
// test on h, an event-only test — under the three evaluators that
// order them differently.
func TestConjunctEvaluationOrder(t *testing.T) {
	const src = "select s, h from S s, H h where s.p / event.zero > 0 and h.k = event.k and event.go = 1"
	q := query.MustParse(src)
	f := newFake()
	for i := 1; i <= 3; i++ {
		f.add("S", datum.OID(i), map[string]datum.Value{"p": datum.Int(int64(i))})
	}
	f.add("H", 10, map[string]datum.Value{"k": datum.Int(7)})
	plans := func(args map[string]datum.Value) (sFirst, hFirst *Plan) {
		for _, p := range Enumerate(q, f, args, Options{}) {
			if p.steps[0].access == accessExtent && p.steps[1].access == accessExtent {
				if p.steps[0].from.Var == "s" {
					sFirst = p
				} else {
					hFirst = p
				}
			}
		}
		return sFirst, hFirst
	}
	const failed, empty, oneRowEach, notEvaluated = "failed", "empty", "3 rows", "not evaluated"
	for _, tc := range []struct {
		name                         string
		zero, k, goArg               int64
		oracle, sFirst, hFirst, rule string
	}{
		// Every conjunct is evaluated under every order: all fail.
		{"nothing decides first", 0, 7, 1, failed, failed, failed, failed},
		// The oracle and a plan in FROM order reach the division on the
		// first s; a plan that scans H first finds no h and never
		// evaluates it.
		{"an earlier-placed residual is false", 0, 8, 1, failed, failed, empty, failed},
		// The guard is false: the Rule Manager schedules no firing, so
		// the query is not evaluated at all. Evaluated anyway (Fire,
		// the CLI), the event-only conjunct is a residual of whichever
		// step comes first, after the conjuncts written before it.
		{"a guard is false", 0, 7, 0, failed, failed, empty, notEvaluated},
		{"a guard and a residual are false", 0, 8, 0, failed, failed, empty, notEvaluated},
		// Without the hard error every order agrees.
		{"no error", 1, 7, 1, oneRowEach, oneRowEach, oneRowEach, oneRowEach},
		{"no error, guard false", 1, 7, 0, empty, empty, empty, notEvaluated},
	} {
		args := map[string]datum.Value{"zero": datum.Int(tc.zero), "k": datum.Int(tc.k), "go": datum.Int(tc.goArg)}
		outcome := func(res *query.Result, err error) string {
			switch {
			case err != nil:
				return failed
			case len(res.Rows) == 0:
				return empty
			}
			return oneRowEach
		}
		sFirst, hFirst := plans(args)
		if sFirst == nil || hFirst == nil {
			t.Fatal("the enumeration lacks one of the two scan orders")
		}
		oracle := outcome(query.Eval(q, f, args))
		// What a rule with this condition does on a signal: its guards
		// first, the query only if none rejects.
		rule := oracle
		for _, g := range query.Guards(q) {
			if g.Rejects(args) {
				rule = notEvaluated
			}
		}
		got := []string{oracle, outcome(sFirst.Execute(f, args)), outcome(hFirst.Execute(f, args)), rule}
		if want := []string{tc.oracle, tc.sFirst, tc.hFirst, tc.rule}; !slices.Equal(got, want) {
			t.Errorf("%s: oracle, S-first plan, H-first plan, rule = %v, want %v", tc.name, got, want)
		}
	}
}
