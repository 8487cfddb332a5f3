// Per-claim microbenchmarks for DESIGN.md's per-experiment index: run
// one with `go test -run '^$' -bench <name> .`, sweep processors with
// -cpu 1,2,4,8 and compare two commits with benchstat. End-to-end
// claims are measured by the repo benchmark (BENCHMARK.json,
// benchmark/); bars that need no clock are tests.
package hipac_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hipac "repro"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/feed"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/rule"
	"repro/internal/saa"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

func mustB(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

func setupEngine(b *testing.B) *core.Engine {
	b.Helper()
	e, _ := workload.MustEngine()
	b.Cleanup(func() { e.Close() })
	mustB(b, workload.DefineBase(e))
	e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
	return e
}

// --- C22: signal cost vs rules per event, event-argument conditions ---

// BenchmarkSignalGuarded signals quotes at an event with n trading
// rules, one per symbol, whose conditions test the quote's symbol and
// price: the dispatch table's predicate index leaves one candidate per
// signal and schedules a firing for the one quote in a hundred that
// reaches the limit, whatever n is.
func BenchmarkSignalGuarded(b *testing.B) {
	for _, n := range []int{1, 64, 1024, 10_000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			e := setupEngine(b)
			_, err := workload.SeedStocks(e, 1)
			mustB(b, err)
			mustB(b, workload.QuoteBuyRules(e, n, 50, "noop"))
			syms := make([]datum.Value, n)
			for i := range syms {
				syms[i] = datum.Str(workload.QuoteSymbol(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				price := 49.0
				if i%100 == 0 {
					price = 51
				}
				mustB(b, e.SignalEvent(nil, workload.QuoteEvent, map[string]datum.Value{
					"sym": syms[i%n], "price": datum.Float(price)}))
			}
			e.Quiesce()
			b.StopTimer()
			if st := e.Stats().Rules; st.Triggered != st.ActionsExecuted || st.Triggered != uint64((b.N+99)/100) {
				b.Fatalf("%d signals scheduled %d firings and ran %d actions", b.N, st.Triggered, st.ActionsExecuted)
			}
		})
	}
}

// --- C1: coupling-mode cost (one rule, one update per iteration) ---

func BenchmarkCouplingModes(b *testing.B) {
	for _, ec := range []string{"immediate", "deferred", "separate"} {
		for _, ca := range []string{"immediate", "deferred", "separate"} {
			b.Run(ec+"-"+ca, func(b *testing.B) {
				e := setupEngine(b)
				oids, err := workload.SeedStocks(e, 1)
				mustB(b, err)
				_, err = e.CreateRule(workload.AuditRuleDef("audit", ec, ca))
				mustB(b, err)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustB(b, workload.UpdateOne(e, oids[0], float64(i)))
				}
				e.Quiesce()
			})
		}
	}
}

// --- C2: sibling concurrency vs serial baseline ---

const siblingWork = 200_000 // Spin iterations per action

func BenchmarkSiblingConcurrency(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := setupEngine(b)
			oids, err := workload.SeedStocks(e, 1)
			mustB(b, err)
			var sink atomic.Int64
			e.RegisterCall("work", func(*txn.Txn, map[string]datum.Value) error {
				sink.Add(workload.Spin(siblingWork))
				return nil
			})
			for _, def := range workload.CallRuleDefs(n, "work") {
				_, err := e.CreateRule(def)
				mustB(b, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustB(b, workload.UpdateOne(e, oids[0], float64(i)))
			}
		})
	}
}

func BenchmarkSiblingSerialBaseline(b *testing.B) {
	// The same total work executed serially by one firing.
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := setupEngine(b)
			oids, err := workload.SeedStocks(e, 1)
			mustB(b, err)
			var sink atomic.Int64
			e.RegisterCall("workN", func(*txn.Txn, map[string]datum.Value) error {
				for k := 0; k < n; k++ {
					sink.Add(workload.Spin(siblingWork))
				}
				return nil
			})
			_, err = e.CreateRule(rule.Def{
				Name:   "serial",
				Event:  "modify(Stock)",
				Action: []rule.Step{{Kind: rule.StepCall, Fn: "workN"}},
				EC:     "immediate", CA: "immediate",
			})
			mustB(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustB(b, workload.UpdateOne(e, oids[0], float64(i)))
			}
		})
	}
}

// --- C3: cascade depth ---

func BenchmarkCascadeDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("d=%d", depth), func(b *testing.B) {
			e := setupEngine(b)
			first, err := workload.CascadeChain(e, depth)
			mustB(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := e.Begin()
				_, err := e.Create(tx, first, map[string]datum.Value{"x": datum.Int(0)})
				mustB(b, err)
				mustB(b, tx.Commit())
			}
		})
	}
}

// --- C4: condition-graph sharing vs naive ---

// BenchmarkConditionGraphShared updates one of 200 Stocks per iteration
// under n modify(Stock) rules, sweeping the fraction of rules whose
// condition is one shared condition-graph node.
func BenchmarkConditionGraphShared(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		for _, overlap := range []float64{0, 0.5, 0.9, 1} {
			b.Run(fmt.Sprintf("rules=%d/overlap=%g", n, overlap), func(b *testing.B) {
				benchConditionRules(b, n, overlap)
			})
		}
	}
}

// BenchmarkConditionNaive is the 0 % overlap cell alone: every rule has
// its own node, so every rule costs one evaluation per update.
func BenchmarkConditionNaive(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) { benchConditionRules(b, n, 0) })
	}
}

func benchConditionRules(b *testing.B, n int, overlap float64) {
	e := setupEngine(b)
	oids, err := workload.SeedStocks(e, 200)
	mustB(b, err)
	for _, def := range workload.SharedConditionRules(n, overlap) {
		_, err := e.CreateRule(def)
		mustB(b, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(b, workload.UpdateOne(e, oids[i%200], float64(i)))
	}
}

// --- C5: active-vs-passive overhead ---

func BenchmarkPassiveBaseline(b *testing.B) {
	e := setupEngine(b)
	oids, err := workload.SeedStocks(e, 100)
	mustB(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(b, workload.UpdateOne(e, oids[i%100], float64(i)))
	}
}

func BenchmarkActiveNoMatch(b *testing.B) {
	e := setupEngine(b)
	oids, err := workload.SeedStocks(e, 100)
	mustB(b, err)
	mustB(b, workload.NonMatchingRules(e, 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(b, workload.UpdateOne(e, oids[i%100], float64(i)))
	}
}

func BenchmarkActiveDisabled(b *testing.B) {
	e := setupEngine(b)
	oids, err := workload.SeedStocks(e, 100)
	mustB(b, err)
	mustB(b, workload.DisabledRules(e, 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(b, workload.UpdateOne(e, oids[i%100], float64(i)))
	}
}

// --- C6: composite event detection ---

// BenchmarkCompositeDetection signals A, B, A, ... at one immediate
// rule on a composite event from every goroutine, each in its own
// transaction; a -cpu 1,2 sweep shows whether detection serializes.
func BenchmarkCompositeDetection(b *testing.B) {
	for _, shape := range []struct {
		name string
		spec string
	}{
		{"or", "or(external(A), external(B))"},
		{"seq", "seq(external(A), external(B))"},
		{"and", "and(external(A), external(B))"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			e := setupEngine(b)
			mustB(b, e.DefineEvent("A"))
			mustB(b, e.DefineEvent("B"))
			_, err := e.CreateRule(rule.Def{
				Name:   "composite",
				Event:  shape.spec,
				Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
				EC:     "immediate", CA: "immediate",
			})
			mustB(b, err)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tx := e.Begin()
				for i := 0; pb.Next(); i++ {
					if err := e.SignalEvent(tx, []string{"A", "B"}[i%2], nil); err != nil {
						b.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
				}
			})
		})
	}
}

// --- C7: deferred-set size vs commit latency ---

func BenchmarkDeferredCommit(b *testing.B) {
	for _, n := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("deferred=%d", n), func(b *testing.B) {
			e := setupEngine(b)
			oids, err := workload.SeedStocks(e, 1)
			mustB(b, err)
			_, err = e.CreateRule(workload.AuditRuleDef("audit", "deferred", "immediate"))
			mustB(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := e.Begin()
				for k := 0; k < n; k++ {
					mustB(b, e.Modify(tx, oids[0], map[string]datum.Value{
						"price": datum.Float(float64(k))}))
				}
				mustB(b, tx.Commit()) // n deferred firings drain here
			}
		})
	}
}

// --- C8: nested transaction overhead ---

func BenchmarkNestedTxnOverhead(b *testing.B) {
	for _, depth := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := setupEngine(b)
			oids, err := workload.SeedStocks(e, 1)
			mustB(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				top := e.Begin()
				cur := top
				chain := make([]*txn.Txn, 0, depth)
				ok := true
				for d := 0; d < depth; d++ {
					c, err := cur.Child()
					mustB(b, err)
					chain = append(chain, c)
					cur = c
				}
				mustB(b, e.Modify(cur, oids[0], map[string]datum.Value{
					"price": datum.Float(float64(i))}))
				for j := len(chain) - 1; j >= 0; j-- {
					mustB(b, chain[j].Commit())
				}
				mustB(b, top.Commit())
				_ = ok
			}
		})
	}
}

// --- C9: rule read-lock acquisition on the firing path ---

func BenchmarkRuleLockContention(b *testing.B) {
	// Firing takes a read lock per rule; many rules on one event
	// means many lock acquisitions per update.
	for _, n := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			e := setupEngine(b)
			oids, err := workload.SeedStocks(e, 1)
			mustB(b, err)
			for _, def := range workload.CallRuleDefs(n, "noop") {
				_, err := e.CreateRule(def)
				mustB(b, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustB(b, workload.UpdateOne(e, oids[0], float64(i)))
			}
		})
	}
}

// --- C10: disabled-rule cost at signal time ---

func BenchmarkDisabledRuleCost(b *testing.B) {
	for _, n := range []int{0, 100, 1000} {
		b.Run(fmt.Sprintf("disabled=%d", n), func(b *testing.B) {
			e := setupEngine(b)
			oids, err := workload.SeedStocks(e, 1)
			mustB(b, err)
			mustB(b, workload.DisabledRules(e, n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustB(b, workload.UpdateOne(e, oids[0], float64(i)))
			}
		})
	}
}

// --- C11: temporal scheduling ---

func BenchmarkTemporalScheduling(b *testing.B) {
	for _, n := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("periodic=%d", n), func(b *testing.B) {
			e, clk := workload.MustEngine()
			defer e.Close()
			mustB(b, workload.DefineBase(e))
			e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
			for i := 0; i < n; i++ {
				_, err := e.CreateRule(rule.Def{
					Name:   fmt.Sprintf("tick-%03d", i),
					Event:  "every(1s)",
					Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
					EC:     "immediate", CA: "immediate", // no txn: runs as separate
				})
				mustB(b, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk.Advance(time.Second) // fires all n periodic rules
				e.Quiesce()
			}
		})
	}
}

// --- C12: external signal round trip, in-process and over IPC ---

func BenchmarkExternalSignal(b *testing.B) {
	e := setupEngine(b)
	mustB(b, e.DefineEvent("Ping", "n"))
	_, err := e.CreateRule(rule.Def{
		Name:   "on-ping",
		Event:  "external(Ping)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
		EC:     "immediate", CA: "immediate",
	})
	mustB(b, err)
	tx := e.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(b, e.SignalEvent(tx, "Ping", map[string]datum.Value{"n": datum.Int(int64(i))}))
	}
	b.StopTimer()
	mustB(b, tx.Commit())
}

func BenchmarkExternalSignalIPC(b *testing.B) {
	e := setupEngine(b)
	srv := server.New(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	mustB(b, err)
	go srv.Serve(ln)
	defer srv.Close()
	c, err := client.Dial(ln.Addr().String())
	mustB(b, err)
	defer c.Close()
	mustB(b, c.DefineEvent("Ping", "n"))
	mustB(b, c.CreateRule(rule.Def{
		Name:   "on-ping",
		Event:  "external(Ping)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
		EC:     "immediate", CA: "immediate",
	}))
	tx, err := c.Begin()
	mustB(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(b, c.SignalEvent(tx, "Ping", map[string]datum.Value{"n": datum.Int(int64(i))}))
	}
	b.StopTimer()
	mustB(b, tx.Commit())
}

// --- F4.1: one client operation per round trip ---

// BenchmarkClientRoundTrip times the client operations remote_oltp
// mixes, each over TCP loopback to a server: a Get in a long-lived
// transaction, an update transaction (Begin, Modify, Commit) and an
// indexed point query.
func BenchmarkClientRoundTrip(b *testing.B) {
	e := setupEngine(b)
	srv := server.New(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	mustB(b, err)
	go srv.Serve(ln)
	defer srv.Close()
	c, err := client.Dial(ln.Addr().String())
	mustB(b, err)
	defer c.Close()
	tx, err := c.Begin()
	mustB(b, err)
	mustB(b, c.DefineClass(tx, object.Class{Name: "Quote", Attrs: []object.AttrDef{
		{Name: "sym", Kind: datum.KindString, Indexed: true}, {Name: "price", Kind: datum.KindFloat}}}))
	read, err := c.Create(tx, "Quote", map[string]datum.Value{"sym": datum.Str("XRX"), "price": datum.Float(50)})
	mustB(b, err)
	written, err := c.Create(tx, "Quote", map[string]datum.Value{"sym": datum.Str("IBM"), "price": datum.Float(50)})
	mustB(b, err)
	mustB(b, tx.Commit())
	reads, err := c.Begin()
	mustB(b, err)
	defer reads.Commit()

	b.Run("get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := c.Get(reads, read)
			mustB(b, err)
		}
	})
	b.Run("update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx, err := c.Begin()
			mustB(b, err)
			mustB(b, c.Modify(tx, written, map[string]datum.Value{"price": datum.Float(float64(i))}))
			mustB(b, tx.Commit())
		}
	})
	args := map[string]datum.Value{"sym": datum.Str("XRX")}
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := c.Query(reads, "select q.price as p from Quote q where q.sym = event.sym", args)
			mustB(b, err)
			if len(res.Rows) != 1 {
				b.Fatalf("point query returned %d rows", len(res.Rows))
			}
		}
	})
}

// --- F4.2: the SAA pipeline, quotes end to end ---

func BenchmarkSAAPipeline(b *testing.B) {
	e, _ := workload.MustEngine()
	defer e.Close()
	tx := e.Begin()
	for _, cls := range saa.Classes() {
		mustB(b, e.DefineClass(tx, cls))
	}
	gen := feed.New(feed.Config{Seed: 1})
	oids := map[string]datum.OID{}
	for _, sym := range gen.Symbols() {
		oid, err := e.Create(tx, saa.ClassStock, map[string]datum.Value{
			"symbol": datum.Str(sym), "price": datum.Float(50),
		})
		mustB(b, err)
		oids[sym] = oid
	}
	mustB(b, tx.Commit())
	mustB(b, e.DefineEvent(saa.EventTradeExecuted, saa.TradeEventParams...))
	var displayed atomic.Int64
	e.RegisterAppOperation(saa.OpDisplayQuote, func(map[string]datum.Value) (map[string]datum.Value, error) {
		displayed.Add(1)
		return nil, nil
	})
	_, err := e.CreateRule(saa.DisplayQuoteRule("display-ticker"))
	mustB(b, err)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := gen.Next()
		qt := e.Begin()
		mustB(b, e.Modify(qt, oids[q.Symbol], map[string]datum.Value{
			"price": datum.Float(q.Price)}))
		mustB(b, qt.Commit())
		if i%256 == 255 {
			e.Quiesce()
		}
	}
	e.Quiesce()
	b.StopTimer()
	if displayed.Load() == 0 {
		b.Fatal("display never invoked")
	}
}

// --- ablations: design choices called out in DESIGN.md ---

// BenchmarkIndexVsScan ablates the secondary index: the same
// point-predicate condition evaluated with and without an index on
// the attribute.
func BenchmarkIndexVsScan(b *testing.B) {
	run := func(b *testing.B, indexed bool) {
		e, _ := workload.MustEngine()
		b.Cleanup(func() { e.Close() })
		tx := e.Begin()
		attrs := []hipac.AttrDef{
			{Name: "symbol", Kind: hipac.KindString, Required: true},
			{Name: "price", Kind: hipac.KindFloat, Indexed: indexed},
		}
		mustB(b, e.DefineClass(tx, hipac.Class{Name: "Stock", Attrs: attrs}))
		mustB(b, tx.Commit())
		seed := e.Begin()
		for i := 0; i < 2000; i++ {
			_, err := e.Create(seed, "Stock", map[string]datum.Value{
				"symbol": datum.Str(fmt.Sprintf("S%05d", i)),
				"price":  datum.Float(float64(i)),
			})
			mustB(b, err)
		}
		mustB(b, seed.Commit())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := e.Begin()
			res, err := e.Query(tx, "select s from Stock s where s.price = 1234", nil)
			mustB(b, err)
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
			mustB(b, tx.Commit())
		}
	}
	b.Run("indexed", func(b *testing.B) { run(b, true) })
	b.Run("scan", func(b *testing.B) { run(b, false) })
}

// BenchmarkScanClass walks a 10 000-row extent through the query
// reader, the path every extent scan, hash build and condition takes:
// serial is the k-way merge of the shard runs (ScanClass), per-shard
// the fan-out surface of the parallel executor, one shard after another
// at one pinned LSN. Both borrow the stored versions: allocations are
// per scan, not per row.
func BenchmarkScanClass(b *testing.B) {
	const rows = 10_000
	e := setupEngine(b)
	_, err := workload.SeedStocks(e, rows)
	mustB(b, err)
	tx := e.Begin()
	defer tx.Commit()
	r := e.Objects.SnapshotReader(tx)
	defer r.Close()
	n := 0
	visit := func(datum.OID, map[string]datum.Value) bool { n++; return true }
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n = 0
			mustB(b, r.ScanClass("Stock", visit))
			if n != rows {
				b.Fatalf("scan visited %d rows", n)
			}
		}
	})
	b.Run("per-shard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n = 0
			for si := 0; si < r.ShardCount(); si++ {
				mustB(b, r.ScanClassShard(si, "Stock", r.SnapshotLSN(), visit))
			}
			if n != rows {
				b.Fatalf("shard scans visited %d rows", n)
			}
		}
	})
}

// BenchmarkFetch reads one committed object by OID through the query
// reader — the index-probe and identity-pin path — which hands out the
// stored version without allocating.
func BenchmarkFetch(b *testing.B) {
	e := setupEngine(b)
	oids, err := workload.SeedStocks(e, 1024)
	mustB(b, err)
	tx := e.Begin()
	defer tx.Commit()
	r := e.Objects.Reader(tx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := r.Fetch(oids[(i*31)%len(oids)]); !ok {
			b.Fatal("object not found")
		}
	}
}

// BenchmarkQueryCycle runs the query shapes of the repo benchmark's
// analytic_query workload, one sub-benchmark per shape and one for the
// ten-query cycle, through Engine.Query — parse, plan, compile and
// execute — over workload.SeedPortfolio's data with no writer beside
// them. -benchmem shows what a scanned row allocates.
func BenchmarkQueryCycle(b *testing.B) {
	e, _ := workload.MustEngine()
	b.Cleanup(func() { e.Close() })
	mustB(b, workload.SeedPortfolio(e))
	args := workload.PortfolioArgs()
	run := func(b *testing.B, shapes ...int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, qi := range shapes {
				tx := e.Begin()
				res, err := e.Query(tx, workload.PortfolioQueries[qi].Src, args)
				mustB(b, err)
				if len(res.Rows) == 0 {
					b.Fatalf("%s returned no rows", workload.PortfolioQueries[qi].Name)
				}
				mustB(b, tx.Commit())
			}
		}
	}
	for qi, q := range workload.PortfolioQueries {
		b.Run(q.Name, func(b *testing.B) { run(b, qi) })
	}
	b.Run("cycle", func(b *testing.B) { run(b, workload.PortfolioCycle...) })
}

// BenchmarkObsOverhead ablates the observability subsystem: the same
// rule-firing update loop with histograms+tracing on (the default)
// and fully disabled. The enabled/disabled delta is the total
// instrumentation cost on the hot path.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, disabled bool) {
		e, err := core.Open(core.Options{
			Clock: hipac.NewVirtualClock(workload.Epoch),
			Obs:   obs.Options{Disabled: disabled},
		})
		mustB(b, err)
		b.Cleanup(func() { e.Close() })
		mustB(b, workload.DefineBase(e))
		oids, err := workload.SeedStocks(e, 1)
		mustB(b, err)
		_, err = e.CreateRule(workload.AuditRuleDef("audit", "immediate", "immediate"))
		mustB(b, err)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustB(b, workload.UpdateOne(e, oids[0], float64(i)))
		}
	}
	b.Run("enabled", func(b *testing.B) { run(b, false) })
	b.Run("disabled", func(b *testing.B) { run(b, true) })
}

// BenchmarkParallelCommit measures durable-commit throughput with
// concurrent top-level committers (run with -cpu 1,2,4,8 to sweep).
// Each goroutine owns a distinct object, so committers contend only
// on the store and the log — the paths group commit is meant to
// scale. Compare wal-fsync across -cpu values: with group commit,
// ns/op should drop as committers share flushes.
func BenchmarkParallelCommit(b *testing.B) {
	run := func(b *testing.B, dir string, noSync bool) {
		e, err := core.Open(core.Options{Dir: dir, NoSync: noSync,
			Clock: hipac.NewVirtualClock(workload.Epoch)})
		mustB(b, err)
		b.Cleanup(func() { e.Close() })
		mustB(b, workload.DefineBase(e))
		oids, err := workload.SeedStocks(e, 128)
		mustB(b, err)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			oid := oids[int(next.Add(1)-1)%len(oids)]
			i := 0
			for pb.Next() {
				tx := e.Begin()
				mustB(b, e.Modify(tx, oid, map[string]datum.Value{
					"price": datum.Float(float64(i))}))
				mustB(b, tx.Commit())
				i++
			}
		})
		b.StopTimer()
		st := e.Store.Stats()
		if st.TopCommits > 0 {
			b.ReportMetric(float64(st.WALFsyncs)/float64(st.TopCommits), "fsyncs/commit")
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, "", true) })
	b.Run("wal-nosync", func(b *testing.B) { run(b, b.TempDir(), true) })
	b.Run("wal-fsync", func(b *testing.B) { run(b, b.TempDir(), false) })
}

// BenchmarkParallelRead measures in-memory read throughput with
// concurrent readers (run with -cpu 1,2,4,8 to sweep). "get" is pure
// point reads; "mixed" adds one committed update per ten reads, with
// writers touching a disjoint OID range so the benchmark measures
// store/lock-manager contention rather than transaction conflicts.
// Reader transactions are recycled every 512 operations to bound
// lock-table growth.
func BenchmarkParallelRead(b *testing.B) {
	run := func(b *testing.B, writeEvery int) {
		e, err := core.Open(core.Options{Clock: hipac.NewVirtualClock(workload.Epoch)})
		mustB(b, err)
		b.Cleanup(func() { e.Close() })
		mustB(b, workload.DefineBase(e))
		oids, err := workload.SeedStocks(e, 2048)
		mustB(b, err)
		readPool, writePool := oids[:1024], oids[1024:]
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			seq := int(next.Add(1))
			wOID := writePool[(seq-1)%len(writePool)]
			tx := e.Begin()
			i := 0
			for pb.Next() {
				i++
				if writeEvery > 0 && i%writeEvery == 0 {
					wtx := e.Begin()
					mustB(b, e.Modify(wtx, wOID, map[string]datum.Value{
						"price": datum.Float(float64(i))}))
					mustB(b, wtx.Commit())
					continue
				}
				if i%512 == 0 {
					mustB(b, tx.Commit())
					tx = e.Begin()
				}
				oid := readPool[(i*31+seq*17)%len(readPool)]
				_, err := e.Get(tx, oid)
				mustB(b, err)
			}
			mustB(b, tx.Commit())
		})
	}
	b.Run("get", func(b *testing.B) { run(b, 0) })
	b.Run("mixed", func(b *testing.B) { run(b, 10) })
}

// BenchmarkCheckpointDuringCommits measures how much a running fuzzy
// checkpointer perturbs the commit path. Sub-runs toggle the timed
// checkpointer (C14) and the WAL-growth trigger (C15: a tighter byte
// budget raises the delta count, not the commit tail) against the same
// parallel-commit workload; the non-quiescent design is held to commit
// p99 within 2x of the checkpointer-off baseline. Reported extras:
// checkpoints and deltas taken, commit-stall p99 from the histograms.
func BenchmarkCheckpointDuringCommits(b *testing.B) {
	run := func(b *testing.B, noSync bool, interval time.Duration, afterBytes uint64) {
		e, err := core.Open(core.Options{Dir: b.TempDir(), NoSync: noSync,
			CheckpointInterval: interval, CheckpointAfterBytes: afterBytes,
			Clock: hipac.NewVirtualClock(workload.Epoch)})
		mustB(b, err)
		b.Cleanup(func() { e.Close() })
		mustB(b, workload.DefineBase(e))
		oids, err := workload.SeedStocks(e, 128)
		mustB(b, err)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			oid := oids[int(next.Add(1)-1)%len(oids)]
			i := 0
			for pb.Next() {
				tx := e.Begin()
				mustB(b, e.Modify(tx, oid, map[string]datum.Value{
					"price": datum.Float(float64(i))}))
				mustB(b, tx.Commit())
				i++
			}
		})
		b.StopTimer()
		st := e.Store.Stats()
		b.ReportMetric(float64(st.Checkpoints), "checkpoints")
		b.ReportMetric(float64(st.DeltaCheckpoints), "deltas")
		if h := e.Obs.Snapshot().Hist["commit_stall"]; h.Count > 0 {
			b.ReportMetric(float64(h.Quantile(0.99).Nanoseconds()), "stall-p99-ns")
		}
		if errs := e.AsyncErrors(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
	}
	b.Run("nosync-ckpt-off", func(b *testing.B) { run(b, true, 0, 0) })
	b.Run("nosync-ckpt-5ms", func(b *testing.B) { run(b, true, 5*time.Millisecond, 0) })
	b.Run("fsync-ckpt-off", func(b *testing.B) { run(b, false, 0, 0) })
	b.Run("fsync-ckpt-25ms", func(b *testing.B) { run(b, false, 25*time.Millisecond, 0) })
	b.Run("fsync-trigger=64KiB", func(b *testing.B) { run(b, false, 0, 64<<10) })
	b.Run("fsync-trigger=16KiB", func(b *testing.B) { run(b, false, 0, 16<<10) })
}

// BenchmarkReplicaReadsUnderCommits (C19) reads points on a
// WAL-shipping replica, at its applied frontier, while four committers
// drive the durable primary at full rate: ns/op is one replica read,
// lag_p99_us the p99 of the replica's own repl_lag histogram (a batch's
// send-to-apply latency). The replica must converge once commits stop.
func BenchmarkReplicaReadsUnderCommits(b *testing.B) {
	const objects, committers = 2048, 4
	txns, _ := txn.NewSystem()
	store, err := storage.Open(txns, storage.Options{Dir: b.TempDir(), NoSync: true})
	mustB(b, err)
	defer store.Close()
	txns.Register(store)
	prim := repl.NewPrimary(store, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	mustB(b, err)
	go prim.Serve(ln)
	defer prim.Close()
	o := obs.New(obs.Options{})
	rep, err := repl.Open(repl.Options{Dir: b.TempDir(), PrimaryAddr: ln.Addr().String(), NoSync: true, Obs: o})
	mustB(b, err)
	defer rep.Close()
	put := func(tx *txn.Txn, oid datum.OID, v int64) {
		store.Put(tx.ID(), storage.Record{OID: oid, Class: "S",
			Attrs: map[string]datum.Value{"v": datum.Int(v)}})
	}
	seed := txns.Begin() // one transaction, so one shipped batch
	for i := 1; i <= objects; i++ {
		put(seed, datum.OID(i), 0)
	}
	mustB(b, seed.Commit())
	if !rep.WaitApplied(store.WAL().End(), 10*time.Second) {
		b.Fatalf("replica never caught up to the seed: %+v", rep.Status())
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 1; w <= committers; w++ {
		wg.Add(1)
		go func(oid datum.OID) {
			defer wg.Done()
			for i := int64(1); !stop.Load(); i++ {
				tx := txns.Begin()
				put(tx, oid, i)
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}(datum.OID(w))
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(next.Add(1)) * 509; pb.Next(); i++ {
			if _, err := rep.Get(datum.OID(i%objects + 1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	if !rep.WaitApplied(store.WAL().End(), time.Minute) {
		b.Fatalf("replica never converged after the run: %+v", rep.Status())
	}
	b.ReportMetric(float64(o.Snapshot().Hist["repl_lag"].Quantile(0.99).Microseconds()), "lag_p99_us")
}

// BenchmarkWALDurability ablates the write-ahead log: committed
// update cost in-memory, with a WAL (no fsync), and with fsync.
func BenchmarkWALDurability(b *testing.B) {
	run := func(b *testing.B, dir string, noSync bool) {
		e, err := core.Open(core.Options{Dir: dir, NoSync: noSync,
			Clock: hipac.NewVirtualClock(workload.Epoch)})
		mustB(b, err)
		b.Cleanup(func() { e.Close() })
		mustB(b, workload.DefineBase(e))
		oids, err := workload.SeedStocks(e, 1)
		mustB(b, err)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustB(b, workload.UpdateOne(e, oids[0], float64(i)))
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, "", true) })
	b.Run("wal-nosync", func(b *testing.B) { run(b, b.TempDir(), true) })
	b.Run("wal-fsync", func(b *testing.B) { run(b, b.TempDir(), false) })
}
