// Engine-level differential test: every plan against the tree-walk
// oracle on a real MVCC store, at a snapshot LSN pinned while
// concurrent committers keep mutating the underlying classes. Lives
// in an external test package because it drives the full engine,
// which itself links against the planner.
package plan_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/saa"
	"repro/internal/workload"
)

func diffEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	tx := e.Begin()
	for _, c := range []object.Class{
		{Name: "Stock", Attrs: []object.AttrDef{
			{Name: "symbol", Kind: datum.KindString, Indexed: true},
			{Name: "price", Kind: datum.KindFloat, Indexed: true},
		}},
		{Name: "Holding", Attrs: []object.AttrDef{
			{Name: "owner", Kind: datum.KindString, Indexed: true},
			{Name: "symbol", Kind: datum.KindString},
			{Name: "qty", Kind: datum.KindInt},
		}},
	} {
		if err := e.DefineClass(tx, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDifferentialUnderConcurrentCommitters pins a snapshot reader
// per round and checks that the oracle and every enumerated plan see
// the same rows through it, while writer goroutines commit against
// the same classes. Run it under -race: the point is that plan
// execution shares no unsynchronized state with committers.
func TestDifferentialUnderConcurrentCommitters(t *testing.T) {
	e := diffEngine(t)

	// Seed data: a few stocks, holdings spread over owners.
	seed := e.Begin()
	for i := 0; i < 8; i++ {
		if _, err := e.Create(seed, "Stock", map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("SYM%d", i)),
			"price":  datum.Float(float64(10 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if _, err := e.Create(seed, "Holding", map[string]datum.Value{
			"owner":  datum.Str(fmt.Sprintf("owner%d", i%6)),
			"symbol": datum.Str(fmt.Sprintf("SYM%d", i%8)),
			"qty":    datum.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// Committers: each worker owns a disjoint set of holdings it
	// creates, modifies, and deletes in small transactions.
	var stop atomic.Bool
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 42))
			var mine []datum.OID
			for !stop.Load() {
				tx := e.Begin()
				switch {
				case len(mine) < 5 || rng.Intn(3) == 0:
					oid, err := e.Create(tx, "Holding", map[string]datum.Value{
						"owner":  datum.Str(fmt.Sprintf("owner%d", rng.Intn(6))),
						"symbol": datum.Str(fmt.Sprintf("SYM%d", rng.Intn(8))),
						"qty":    datum.Int(int64(rng.Intn(100))),
					})
					if err == nil {
						mine = append(mine, oid)
					}
				case rng.Intn(2) == 0:
					e.Modify(tx, mine[rng.Intn(len(mine))], map[string]datum.Value{
						"qty": datum.Int(int64(rng.Intn(100))),
					})
				default:
					i := rng.Intn(len(mine))
					if err := e.Delete(tx, mine[i]); err == nil {
						mine = append(mine[:i], mine[i+1:]...)
					}
				}
				tx.Commit()
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	queries := []string{
		"select h from Holding h where h.owner = event.owner",
		"select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner",
		"select s.symbol, h.qty from Stock s, Holding h where s.symbol = h.symbol and h.qty >= 10 order by h.qty desc limit 5",
		"select count(*) as n, sum(h.qty) as total from Holding h, Stock s where h.symbol = s.symbol and s.price > event.floor",
	}

	const rounds = 60
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) * 104729))
		args := map[string]datum.Value{
			"owner": datum.Str(fmt.Sprintf("owner%d", rng.Intn(6))),
			"floor": datum.Float(float64(9 + rng.Intn(10))),
		}
		src := queries[round%len(queries)]
		q := query.MustParse(src)

		tx := e.Begin()
		sr := e.Objects.SnapshotReader(tx)
		lsn := sr.SnapshotLSN()

		want, err := query.Eval(q, sr, args)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		// The forced-parallel builds remove the cardinality floor so
		// every round also runs range-parallel scans, partitioned hash
		// joins, and parallel aggregation against the live store —
		// byte-equality vs. the serial plans and the oracle, under
		// -race.
		plans := append(
			[]*plan.Plan{
				plan.Build(q, sr, args, plan.Options{}),
				plan.Build(q, sr, args, plan.Options{DisableIndex: true}),
				plan.Build(q, sr, args, plan.Options{DisableHash: true}),
				plan.Build(q, nil, args, plan.Options{ForceOrder: true}),
				plan.Build(q, sr, args, plan.Options{Parallelism: 4, ParallelThreshold: -1}),
				plan.Build(q, sr, args, plan.Options{Parallelism: 8, ParallelThreshold: -1, DisableIndex: true}),
				plan.Build(q, sr, args, plan.Options{Parallelism: 2, ParallelThreshold: -1, DisableHash: true}),
			},
			plan.Enumerate(q, sr, args, plan.Options{})...)
		for i, p := range plans {
			got, err := p.Execute(sr, args)
			if err != nil {
				t.Fatalf("round %d plan %d: %v\n%s", round, i, err, p.Explain())
			}
			if !want.Equal(got) {
				t.Fatalf("round %d plan %d diverges at snapshot LSN %d\nquery: %s\nwant: %+v\ngot:  %+v\n%s",
					round, i, lsn, src, want, got, p.Explain())
			}
		}
		if got := sr.SnapshotLSN(); got != lsn {
			t.Fatalf("snapshot moved during evaluation: %d -> %d", lsn, got)
		}
		sr.Close()
		tx.Commit()
	}
}

// TestParallelScanPinnedLSNUnderCommitters races committer goroutines
// against forced-parallel unselective scans and joins. Every range
// worker reads at the reader's pinned snapshot LSN; the test asserts
// the LSN is immobile across the whole fan-out and that the parallel
// result equals the serial result at the same pin — i.e. concurrent
// commits are invisible to every worker, not just the gather node.
func TestParallelScanPinnedLSNUnderCommitters(t *testing.T) {
	e := diffEngine(t)
	seed := e.Begin()
	for i := 0; i < 300; i++ {
		if _, err := e.Create(seed, "Holding", map[string]datum.Value{
			"owner":  datum.Str(fmt.Sprintf("owner%d", i%6)),
			"symbol": datum.Str(fmt.Sprintf("SYM%d", i%8)),
			"qty":    datum.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := e.Create(seed, "Stock", map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("SYM%d", i)),
			"price":  datum.Float(float64(10 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 99))
			var mine []datum.OID
			for !stop.Load() {
				tx := e.Begin()
				// Bounded churn: grow to ~20 rows, then replace —
				// the extent stays small while its version chains and
				// membership keep flipping under the scan workers.
				if len(mine) < 20 {
					oid, err := e.Create(tx, "Holding", map[string]datum.Value{
						"owner":  datum.Str(fmt.Sprintf("owner%d", rng.Intn(6))),
						"symbol": datum.Str(fmt.Sprintf("SYM%d", rng.Intn(8))),
						"qty":    datum.Int(int64(rng.Intn(1000))),
					})
					if err == nil {
						mine = append(mine, oid)
					}
				} else {
					i := rng.Intn(len(mine))
					if err := e.Delete(tx, mine[i]); err == nil {
						mine = append(mine[:i], mine[i+1:]...)
					}
				}
				tx.Commit()
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	queries := []string{
		"select h from Holding h where h.qty >= 0",
		"select s.symbol, h.qty from Stock s, Holding h where s.symbol = h.symbol",
		"select count(*) as n, sum(h.qty) as total from Holding h",
	}
	for round := 0; round < 30; round++ {
		src := queries[round%len(queries)]
		q := query.MustParse(src)
		tx := e.Begin()
		sr := e.Objects.SnapshotReader(tx)
		lsn := sr.SnapshotLSN()

		serial, err := plan.Build(q, sr, nil, plan.Options{Parallelism: 1}).Execute(sr, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := plan.Build(q, sr, nil, plan.Options{Parallelism: 8, ParallelThreshold: -1})
		par, err := p.Execute(sr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Equal(par) {
			t.Fatalf("round %d: parallel result diverges from serial at pinned LSN %d\nquery: %s\n%s",
				round, lsn, src, p.Explain())
		}
		if got := sr.SnapshotLSN(); got != lsn {
			t.Fatalf("round %d: pinned snapshot LSN moved across the fan-out: %d -> %d", round, lsn, got)
		}
		sr.Close()
		tx.Commit()
	}
}

// TestEngineQueryAndExplain drives the engine's public Query/Explain
// paths and asserts Query agrees with the tree-walk oracle evaluated
// directly on a snapshot reader of the same engine — and, by the
// store's counters, that the planned join's cost follows its result
// rows where the oracle's syntactic order follows the extents (C20).
func TestEngineQueryAndExplain(t *testing.T) {
	e := diffEngine(t)
	tx := e.Begin()
	for i := 0; i < 5000; i++ {
		if i < 200 {
			if _, err := e.Create(tx, "Stock", map[string]datum.Value{
				"symbol": datum.Str(fmt.Sprintf("S%03d", i)), "price": datum.Float(10),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Create(tx, "Holding", map[string]datum.Value{
			"owner":  datum.Str(fmt.Sprintf("acct%02d", i%50)),
			"symbol": datum.Str(fmt.Sprintf("S%03d", i%200)), "qty": datum.Int(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str("XRX"), "price": datum.Float(48),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create(tx, "Holding", map[string]datum.Value{
		"owner": datum.Str("kim"), "symbol": datum.Str("XRX"), "qty": datum.Int(3),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	const src = "select s.symbol, h.qty from Stock s, Holding h where s.symbol = h.symbol and h.owner = 'kim'"
	tx = e.Begin()
	defer tx.Commit()
	s0 := e.Store.Stats()
	got, err := e.Query(tx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.Store.Stats()
	sr := e.Objects.SnapshotReader(tx)
	defer sr.Close()
	s2 := e.Store.Stats()
	want, err := query.Eval(query.MustParse(src), sr, nil)
	if err != nil {
		t.Fatal(err)
	}
	s3 := e.Store.Stats()
	// Extent rows the planned join resolved, and rows read (resolved
	// or fetched by OID) by the planned join and by the oracle.
	scanned := s1.RowsScanned - s0.RowsScanned
	planned := scanned + s1.Gets - s0.Gets
	walked := s3.RowsScanned - s2.RowsScanned + s3.Gets - s2.Gets
	if scanned >= uint64(len(got.Rows)) || walked < 100*planned {
		t.Fatalf("planned join resolved %d extent rows and did %d row reads for %d result rows; the oracle did %d",
			scanned, planned, len(got.Rows), walked)
	}
	if len(want.Rows) != 1 {
		t.Fatalf("oracle rows = %+v, want the one kim/XRX holding", want.Rows)
	}
	if !want.Equal(got) {
		t.Fatalf("Engine.Query and the tree-walk oracle disagree:\nwant %+v\ngot  %+v", want, got)
	}

	text, err := e.Explain(tx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"plan (cost=", "Holding", "Stock"} {
		if !strings.Contains(text, needle) {
			t.Fatalf("explain missing %q:\n%s", needle, text)
		}
	}
}

// TestQueryAllocations holds the executor to its allocation budget on
// the benchmark's heavy shapes, built and run inline (Parallelism 1)
// over the real store: a scanned row may cost at most a tenth of an
// allocation — slabs, doubling buffers, one string per distinct hash
// key — never one of its own. Each result is first held to the oracle.
func TestQueryAllocations(t *testing.T) {
	e, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := workload.SeedPortfolio(e); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Commit()
	sr := e.Objects.SnapshotReader(tx)
	defer sr.Close()
	args := workload.PortfolioArgs()
	for _, tc := range []struct {
		shape   string
		scanned int // extent rows the plan visits
	}{{"scan", 10_000}, {"agg", 10_000}, {"agg_filtered", 10_000}, {"join3", 10_000 + 512 + 16}} {
		var q *query.Query
		for _, pq := range workload.PortfolioQueries {
			if pq.Name == tc.shape {
				q = query.MustParse(pq.Src)
			}
		}
		run := func() *query.Result {
			res, err := plan.Build(q, sr, args, plan.Options{Parallelism: 1}).Execute(sr, args)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if want, err := query.Eval(q, sr, args); err != nil || !want.Equal(run()) {
			t.Fatalf("%s: the plan differs from the oracle (%v)", tc.shape, err)
		}
		allocs := testing.AllocsPerRun(5, func() { run() })
		if perRow := allocs / float64(tc.scanned); perRow > 0.1 {
			t.Errorf("%s: %.0f allocations for %d scanned rows (%.3f per row, budget 0.1)", tc.shape, allocs, tc.scanned, perRow)
		} else {
			t.Logf("%s: %.0f allocations, %.4f per scanned row", tc.shape, allocs, perRow)
		}
	}
}

// TestPreparedPlansMatchSignalPlans plans the repo benchmark's rule
// conditions over data of its sizes twice: with a signal's arguments,
// as each firing planned before condition-graph nodes kept their plans,
// and prepared without them, as a node does now. Both must choose the
// same access path for every FROM clause. The conditions are saa's
// display (also remote's, over more stocks), buy and portfolio rules
// and cep's tumbling rule.
func TestPreparedPlansMatchSignalPlans(t *testing.T) {
	e, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tx := e.Begin()
	classes := append(saa.Classes(), object.Class{Name: "Alert", Attrs: []object.AttrDef{
		{Name: "ticker", Kind: datum.KindString, Required: true, Indexed: true},
		{Name: "last_seq", Kind: datum.KindInt},
	}})
	for _, c := range classes {
		if err := e.DefineClass(tx, c); err != nil {
			t.Fatal(err)
		}
	}
	create := func(class string, attrs map[string]datum.Value) datum.OID {
		oid, err := e.Create(tx, class, attrs)
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	var stocks []datum.OID
	for i := 0; i < 2000; i++ {
		stocks = append(stocks, create(saa.ClassStock, map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("S%05d", i)), "price": datum.Float(50)}))
	}
	for i := 0; i < 10_000; i++ {
		o := i % 500
		create(saa.ClassHolding, map[string]datum.Value{
			"owner":  datum.Str(fmt.Sprintf("O%03d", o)),
			"symbol": datum.Str(fmt.Sprintf("S%05d", (o+(i/500)*97)%2000)), "qty": datum.Int(100)})
	}
	for i := 0; i < 4096; i++ {
		create("Alert", map[string]datum.Value{"ticker": datum.Str(fmt.Sprintf("T%04d", i)), "last_seq": datum.Int(-1)})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		cond string
		args map[string]datum.Value
	}{
		{saa.DisplayQuoteRule("display").Condition[0],
			map[string]datum.Value{"oid": datum.ID(stocks[3]), "new_price": datum.Float(51)}},
		{saa.BuyAtRule("buy", "O001", "S00001", 500, 55).Condition[0],
			map[string]datum.Value{"oid": datum.ID(stocks[1]), "new_price": datum.Float(56)}},
		{saa.PortfolioUpdateRule("portfolio").Condition[0],
			map[string]datum.Value{"owner": datum.Str("O001"), "symbol": datum.Str("S00001"), "qty": datum.Int(500)}},
		{"select a from Alert a where a.ticker = event.ticker",
			map[string]datum.Value{"ticker": datum.Str("T0042"), "seq": datum.Int(9)}},
	} {
		rtx := e.Begin()
		sr := e.Objects.SnapshotReader(rtx)
		q := query.MustParse(c.cond)
		signal, prepared := plan.Build(q, sr, c.args, plan.Options{}), plan.Build(q, sr, nil, plan.Options{})
		want, got := accessPaths(signal.Explain()), accessPaths(prepared.Explain())
		res, err := prepared.Execute(sr, c.args)
		sr.Close()
		rtx.Commit()
		if !slices.Equal(want, got) {
			t.Errorf("%s\nper-signal plan:\n%s\nprepared plan:\n%s", c.cond, signal.Explain(), prepared.Explain())
		}
		if err != nil || res.Empty() {
			t.Errorf("%s: prepared plan returned %v, %v; want a row", c.cond, res, err)
		}
	}
}

// accessPaths returns the step lines of an Explain text without their
// estimates: join order, access path, class, variable and bounds.
func accessPaths(explain string) []string {
	var out []string
	for _, line := range strings.Split(explain, "\n") {
		if t := strings.TrimSpace(line); len(t) > 2 && t[0] >= '1' && t[0] <= '9' && t[1] == '.' {
			out = append(out, strings.SplitN(t, " (est", 2)[0])
		}
	}
	return out
}
