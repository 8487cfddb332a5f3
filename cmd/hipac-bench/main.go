// Command hipac-bench regenerates the experiments in DESIGN.md's
// per-experiment index and prints one table per experiment; the
// results recorded in EXPERIMENTS.md come from this tool.
//
// Usage:
//
//	hipac-bench [-run all|F41|F42|C1|...|C22] [-quick]
//	           [-json out.json] [-compare baseline.json] [-regress-threshold 0.20]
//
// -json writes the metrics recorded during the run (today: C16's
// parallel-scalability cells, C17's composite-event cells, C18's
// snapshot-scan race cells, C19's replication cells, C20's
// planner-vs-tree-walk join cells, C21's parallel-executor cells, and
// C22's signal-cost cells) as a flat name -> ns/op map; the committed BENCH_10.json
// baseline is produced with `make bench-baseline`. -compare
// re-measures and fails (exit 1) if any metric shared with the
// baseline regressed beyond the threshold — CI runs the bench smoke
// against BENCH_10.json.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/rule"
	"repro/internal/saa"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/workload"
)

func main() {
	run := flag.String("run", "all", "experiment ids (F41, F42, C1..C22), comma-separated, or all")
	quick := flag.Bool("quick", false, "smaller iteration counts")
	jsonPath := flag.String("json", "", "write recorded metrics (name -> ns/op) to this file")
	comparePath := flag.String("compare", "", "fail if recorded metrics regress beyond the threshold vs this baseline JSON")
	threshold := flag.Float64("regress-threshold", 0.20, "relative slowdown tolerated by -compare")
	flag.Parse()

	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	selected := ids
	if *run != "all" {
		selected = nil
		for _, part := range strings.Split(*run, ",") {
			want := strings.ToUpper(strings.TrimSpace(part))
			if _, ok := experiments[want]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; have %s\n", part, strings.Join(ids, " "))
				os.Exit(1)
			}
			selected = append(selected, want)
		}
	}
	warmProcess()
	for _, id := range selected {
		fmt.Printf("=== %s: %s ===\n", id, titles[id])
		if err := experiments[id](*quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *comparePath != "" {
		if err := compareBenchJSON(*comparePath, *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "bench regression gate: %v\n", err)
			os.Exit(1)
		}
	}
}

var titles = map[string]string{
	"F41": "Figure 4.1 — application/DBMS interface over IPC",
	"F42": "Figure 4.2 — SAA pipeline throughput",
	"C1":  "coupling-mode cost per triggering update",
	"C2":  "concurrent sibling firings vs serial baseline",
	"C3":  "cascade depth cost",
	"C4":  "condition-graph sharing vs naive evaluation",
	"C5":  "active-vs-passive DML overhead",
	"C6":  "composite event detection cost",
	"C7":  "commit latency vs deferred-set size",
	"C8":  "nested transaction depth overhead",
	"C9":  "rule read-lock cost on the firing path",
	"C10": "disabled-rule cost at signal time",
	"C11": "temporal scheduling cost",
	"C12": "external signal round trip (in-process vs IPC)",
	"C13": "parallel commit throughput under WAL group commit",
	"C14": "commit latency under a running fuzzy checkpointer",
	"C15": "commit p99 under size-triggered delta checkpoints",
	"C16": "sharded-store parallel scalability: reads and commits at 1 and 8 procs",
	"C17": "composite-event runtime: signals/sec vs active-instance count and rule fan-out",
	"C18": "MVCC read path: long snapshot scans racing committers",
	"C19": "WAL shipping: replica read throughput and lag vs primary commit rate",
	"C20": "query planning: join-heavy condition over 1M holdings, planner vs tree-walk",
	"C21": "parallel execution: scan, 3-way hash join, and aggregate at plan parallelism 1/2/8",
	"C22": "rule discrimination: signal cost vs rules per event, event-argument conditions at 1% selectivity",
}

var experiments = map[string]func(quick bool) error{
	"F41": expF41, "F42": expF42,
	"C1": expC1, "C2": expC2, "C3": expC3, "C4": expC4,
	"C5": expC5, "C6": expC6, "C7": expC7, "C8": expC8,
	"C9": expC9, "C10": expC10, "C11": expC11, "C12": expC12,
	"C13": expC13, "C14": expC14, "C15": expC15, "C16": expC16,
	"C17": expC17, "C18": expC18, "C19": expC19, "C20": expC20,
	"C21": expC21, "C22": expC22,
}

// measure warms the path up, then runs fn iters times and returns
// the mean duration per iteration.
func measure(iters int, fn func(i int) error) (time.Duration, error) {
	warm := iters / 10
	if warm > 50 {
		warm = 50
	}
	for i := 0; i < warm; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

func iters(quick bool, full int) int {
	if quick {
		if full >= 100 {
			return full / 10
		}
		return full
	}
	return full
}

func row(cols ...any) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	fmt.Printf("  %-28s %s\n", parts[0], strings.Join(parts[1:], "  "))
}

// tailRow prints p50/p99 rows for the named histograms from the
// engine's observability snapshot, so the experiment tables copied
// into EXPERIMENTS.md report tail latency alongside per-op means.
func tailRow(e *core.Engine, names ...string) {
	snap := e.Obs.Snapshot()
	for _, name := range names {
		h, ok := snap.Hist[name]
		if !ok || h.Count == 0 {
			continue
		}
		if obs.HistIsCount(name) {
			row(name+" mean/p50/p99", fmt.Sprintf("%.1f", h.MeanCount()),
				h.QuantileCount(0.5), h.QuantileCount(0.99))
			continue
		}
		row(name+" p50/p99", h.Quantile(0.5), h.Quantile(0.99))
	}
}

// warmProcess exercises an engine once so the first measured
// experiment doesn't pay the process's allocator and GC growth.
func warmProcess() {
	e, err := newBase()
	if err != nil {
		return
	}
	defer e.Close()
	oids, err := workload.SeedStocks(e, 10)
	if err != nil {
		return
	}
	for i := 0; i < 1000; i++ {
		_ = workload.UpdateOne(e, oids[i%10], float64(i))
	}
}

func newBase() (*core.Engine, error) {
	e, _ := workload.MustEngine()
	if err := workload.DefineBase(e); err != nil {
		return nil, err
	}
	e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
	return e, nil
}

// --- F41 ---

func expF41(quick bool) error {
	e, err := newBase()
	if err != nil {
		return err
	}
	defer e.Close()
	srv := server.New(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer srv.Close()

	app, err := client.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer app.Close()
	var called atomic.Int64
	if err := app.Serve(map[string]client.Handler{
		"echo": func(args map[string]datum.Value) (map[string]datum.Value, error) {
			called.Add(1)
			return args, nil
		},
	}); err != nil {
		return err
	}
	if _, err := e.CreateRule(rule.Def{
		Name:  "callback",
		Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepRequest, Op: "echo",
			Args: map[string]string{"p": "event.new_price"}}},
		EC: "immediate", CA: "immediate",
	}); err != nil {
		return err
	}

	tx, err := app.Begin()
	if err != nil {
		return err
	}
	oid, err := app.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX")})
	if err != nil {
		return err
	}
	n := iters(quick, 2000)
	per, err := measure(n, func(i int) error {
		return app.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(float64(i))})
	})
	if err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	row("module", "result")
	row("data+txn ops over IPC", "ok")
	row("event ops over IPC", "ok")
	row("app-callback round trips", called.Load())
	row("update->rule->callback", per, "per update")
	return nil
}

// --- F42 ---

func expF42(quick bool) error {
	e, _ := workload.MustEngine()
	defer e.Close()
	tx := e.Begin()
	for _, cls := range saa.Classes() {
		if err := e.DefineClass(tx, cls); err != nil {
			return err
		}
	}
	gen := feed.New(feed.Config{Seed: 1})
	oids := map[string]datum.OID{}
	for _, sym := range gen.Symbols() {
		oid, err := e.Create(tx, saa.ClassStock, map[string]datum.Value{
			"symbol": datum.Str(sym), "price": datum.Float(50),
		})
		if err != nil {
			return err
		}
		oids[sym] = oid
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if err := e.DefineEvent(saa.EventTradeExecuted, saa.TradeEventParams...); err != nil {
		return err
	}
	var displayed atomic.Int64
	e.RegisterAppOperation(saa.OpDisplayQuote, func(map[string]datum.Value) (map[string]datum.Value, error) {
		displayed.Add(1)
		return nil, nil
	})
	if _, err := e.CreateRule(saa.DisplayQuoteRule("display-ticker")); err != nil {
		return err
	}
	n := iters(quick, 5000)
	per, err := measure(n, func(i int) error {
		q := gen.Next()
		qt := e.Begin()
		if err := e.Modify(qt, oids[q.Symbol], map[string]datum.Value{
			"price": datum.Float(q.Price)}); err != nil {
			return err
		}
		if err := qt.Commit(); err != nil {
			return err
		}
		if i%256 == 255 {
			e.Quiesce()
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.Quiesce()
	row("quotes processed", n)
	row("display requests", displayed.Load())
	row("per quote", per)
	row("quotes/sec", int(float64(time.Second)/float64(per)))
	tailRow(e, "txn_commit", "op")
	return nil
}

// --- C1 ---

func expC1(quick bool) error {
	row("E-C/C-A", "per triggering update")
	n := iters(quick, 2000)
	for _, ec := range []string{"immediate", "deferred", "separate"} {
		for _, ca := range []string{"immediate", "deferred", "separate"} {
			e, err := newBase()
			if err != nil {
				return err
			}
			oids, err := workload.SeedStocks(e, 1)
			if err != nil {
				return err
			}
			if _, err := e.CreateRule(workload.AuditRuleDef("audit", ec, ca)); err != nil {
				return err
			}
			per, err := measure(n, func(i int) error {
				return workload.UpdateOne(e, oids[0], float64(i))
			})
			if err != nil {
				return err
			}
			e.Quiesce()
			row(ec+"/"+ca, per)
			e.Close()
		}
	}
	return nil
}

// --- C2 ---

func expC2(quick bool) error {
	row("siblings", "concurrent", "serial-baseline")
	const work = 200_000
	n := iters(quick, 50)
	for _, sib := range []int{1, 2, 4, 8, 16, 32} {
		// Concurrent: sib rules fire as siblings.
		e, err := newBase()
		if err != nil {
			return err
		}
		oids, _ := workload.SeedStocks(e, 1)
		var sink atomic.Int64
		e.RegisterCall("work", func(*txn.Txn, map[string]datum.Value) error {
			sink.Add(workload.Spin(work))
			return nil
		})
		for _, def := range workload.CallRuleDefs(sib, "work") {
			if _, err := e.CreateRule(def); err != nil {
				return err
			}
		}
		conc, err := measure(n, func(i int) error {
			return workload.UpdateOne(e, oids[0], float64(i))
		})
		if err != nil {
			return err
		}
		e.Close()

		// Serial baseline: one rule does sib x work.
		e2, err := newBase()
		if err != nil {
			return err
		}
		oids2, _ := workload.SeedStocks(e2, 1)
		sibCopy := sib
		e2.RegisterCall("workN", func(*txn.Txn, map[string]datum.Value) error {
			for k := 0; k < sibCopy; k++ {
				sink.Add(workload.Spin(work))
			}
			return nil
		})
		if _, err := e2.CreateRule(rule.Def{
			Name:   "serial",
			Event:  "modify(Stock)",
			Action: []rule.Step{{Kind: rule.StepCall, Fn: "workN"}},
			EC:     "immediate", CA: "immediate",
		}); err != nil {
			return err
		}
		serial, err := measure(n, func(i int) error {
			return workload.UpdateOne(e2, oids2[0], float64(i))
		})
		if err != nil {
			return err
		}
		e2.Close()
		row(fmt.Sprint(sib), conc, serial)
	}
	return nil
}

// --- C3 ---

func expC3(quick bool) error {
	row("depth", "per trigger", "per level")
	n := iters(quick, 500)
	for _, depth := range []int{1, 2, 4, 8} {
		e, err := newBase()
		if err != nil {
			return err
		}
		first, err := workload.CascadeChain(e, depth)
		if err != nil {
			return err
		}
		per, err := measure(n, func(i int) error {
			tx := e.Begin()
			if _, err := e.Create(tx, first, map[string]datum.Value{"x": datum.Int(0)}); err != nil {
				return err
			}
			return tx.Commit()
		})
		if err != nil {
			return err
		}
		row(fmt.Sprint(depth), per, per/time.Duration(depth))
		e.Close()
	}
	return nil
}

// --- C4 ---

func expC4(quick bool) error {
	row("rules x overlap", "per update")
	n := iters(quick, 100)
	for _, rules := range []int{10, 100, 1000} {
		// Ablation: sweep the fraction of rules sharing one condition
		// node, from fully distinct (the naive baseline) to fully
		// shared.
		for _, overlap := range []float64{0.0, 0.5, 0.9, 1.0} {
			e, err := newBase()
			if err != nil {
				return err
			}
			oids, err := workload.SeedStocks(e, 200)
			if err != nil {
				return err
			}
			for _, def := range workload.SharedConditionRules(rules, overlap) {
				if _, err := e.CreateRule(def); err != nil {
					return err
				}
			}
			per, err := measure(n, func(i int) error {
				return workload.UpdateOne(e, oids[i%200], float64(i))
			})
			if err != nil {
				return err
			}
			row(fmt.Sprintf("%d @ %.0f%%", rules, overlap*100), per)
			e.Close()
		}
	}
	return nil
}

// --- C5 ---

func expC5(quick bool) error {
	row("configuration", "per update", "vs passive")
	n := iters(quick, 3000)
	var passive time.Duration
	for _, cfg := range []string{"passive (0 rules)", "100 non-matching rules", "100 disabled rules"} {
		e, err := newBase()
		if err != nil {
			return err
		}
		oids, err := workload.SeedStocks(e, 100)
		if err != nil {
			return err
		}
		switch cfg {
		case "100 non-matching rules":
			if err := workload.NonMatchingRules(e, 100); err != nil {
				return err
			}
		case "100 disabled rules":
			if err := workload.DisabledRules(e, 100); err != nil {
				return err
			}
		}
		per, err := measure(n, func(i int) error {
			return workload.UpdateOne(e, oids[i%100], float64(i))
		})
		if err != nil {
			return err
		}
		if passive == 0 {
			passive = per
		}
		row(cfg, per, fmt.Sprintf("%.2fx", float64(per)/float64(passive)))
		e.Close()
	}
	return nil
}

// --- C6 ---

func expC6(quick bool) error {
	row("operator", "per signal")
	n := iters(quick, 5000)
	for _, shape := range []struct{ name, spec string }{
		{"primitive", "external(A)"},
		{"or", "or(external(A), external(B))"},
		{"seq", "seq(external(A), external(B))"},
		{"and", "and(external(A), external(B))"},
	} {
		e, err := newBase()
		if err != nil {
			return err
		}
		if err := e.DefineEvent("A"); err != nil {
			return err
		}
		if err := e.DefineEvent("B"); err != nil {
			return err
		}
		if _, err := e.CreateRule(rule.Def{
			Name:   "composite",
			Event:  shape.spec,
			Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
			EC:     "immediate", CA: "immediate",
		}); err != nil {
			return err
		}
		tx := e.Begin()
		per, err := measure(n, func(i int) error {
			name := "A"
			if i%2 == 1 {
				name = "B"
			}
			return e.SignalEvent(tx, name, nil)
		})
		if err != nil {
			return err
		}
		tx.Commit()
		row(shape.name, per)
		e.Close()
	}
	return nil
}

// --- C7 ---

func expC7(quick bool) error {
	row("deferred firings", "commit latency")
	n := iters(quick, 100)
	for _, d := range []int{0, 1, 8, 64, 256, 1024} {
		e, err := newBase()
		if err != nil {
			return err
		}
		oids, err := workload.SeedStocks(e, 1)
		if err != nil {
			return err
		}
		if d > 0 {
			if _, err := e.CreateRule(workload.AuditRuleDef("audit", "deferred", "immediate")); err != nil {
				return err
			}
		}
		per, err := measure(n, func(i int) error {
			tx := e.Begin()
			updates := d
			if updates == 0 {
				updates = 1
			}
			for k := 0; k < updates; k++ {
				if err := e.Modify(tx, oids[0], map[string]datum.Value{
					"price": datum.Float(float64(k))}); err != nil {
					return err
				}
			}
			start := time.Now()
			if err := tx.Commit(); err != nil {
				return err
			}
			_ = start
			return nil
		})
		if err != nil {
			return err
		}
		row(fmt.Sprint(d), per)
		tailRow(e, "txn_commit")
		e.Close()
	}
	return nil
}

// --- C8 ---

func expC8(quick bool) error {
	row("nesting depth", "per txn")
	n := iters(quick, 2000)
	for _, depth := range []int{0, 1, 2, 4, 8} {
		e, err := newBase()
		if err != nil {
			return err
		}
		oids, err := workload.SeedStocks(e, 1)
		if err != nil {
			return err
		}
		per, err := measure(n, func(i int) error {
			top := e.Begin()
			cur := top
			chain := make([]*txn.Txn, 0, depth)
			for d := 0; d < depth; d++ {
				c, err := cur.Child()
				if err != nil {
					return err
				}
				chain = append(chain, c)
				cur = c
			}
			if err := e.Modify(cur, oids[0], map[string]datum.Value{
				"price": datum.Float(float64(i))}); err != nil {
				return err
			}
			for j := len(chain) - 1; j >= 0; j-- {
				if err := chain[j].Commit(); err != nil {
					return err
				}
			}
			return top.Commit()
		})
		if err != nil {
			return err
		}
		row(fmt.Sprint(depth), per)
		e.Close()
	}
	return nil
}

// --- C9 ---

func expC9(quick bool) error {
	row("rules on event", "per update")
	n := iters(quick, 500)
	for _, rules := range []int{1, 16, 64, 256} {
		e, err := newBase()
		if err != nil {
			return err
		}
		oids, err := workload.SeedStocks(e, 1)
		if err != nil {
			return err
		}
		for _, def := range workload.CallRuleDefs(rules, "noop") {
			if _, err := e.CreateRule(def); err != nil {
				return err
			}
		}
		per, err := measure(n, func(i int) error {
			return workload.UpdateOne(e, oids[0], float64(i))
		})
		if err != nil {
			return err
		}
		row(fmt.Sprint(rules), per)
		e.Close()
	}
	return nil
}

// --- C10 ---

func expC10(quick bool) error {
	row("disabled rules", "per update")
	n := iters(quick, 3000)
	for _, d := range []int{0, 10, 100, 1000} {
		e, err := newBase()
		if err != nil {
			return err
		}
		oids, err := workload.SeedStocks(e, 1)
		if err != nil {
			return err
		}
		if err := workload.DisabledRules(e, d); err != nil {
			return err
		}
		per, err := measure(n, func(i int) error {
			return workload.UpdateOne(e, oids[0], float64(i))
		})
		if err != nil {
			return err
		}
		row(fmt.Sprint(d), per)
		e.Close()
	}
	return nil
}

// --- C11 ---

func expC11(quick bool) error {
	row("periodic rules", "per virtual second")
	n := iters(quick, 200)
	for _, k := range []int{1, 16, 128} {
		e, clk := workload.MustEngine()
		if err := workload.DefineBase(e); err != nil {
			return err
		}
		e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
		for i := 0; i < k; i++ {
			if _, err := e.CreateRule(rule.Def{
				Name:   fmt.Sprintf("tick-%03d", i),
				Event:  "every(1s)",
				Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
				EC:     "immediate", CA: "immediate",
			}); err != nil {
				return err
			}
		}
		per, err := measure(n, func(int) error {
			clk.Advance(time.Second)
			e.Quiesce()
			return nil
		})
		if err != nil {
			return err
		}
		row(fmt.Sprint(k), per)
		e.Close()
	}
	return nil
}

// --- C12 ---

func expC12(quick bool) error {
	row("path", "per signal")
	n := iters(quick, 3000)

	// In-process.
	e, err := newBase()
	if err != nil {
		return err
	}
	if err := e.DefineEvent("Ping", "n"); err != nil {
		return err
	}
	if _, err := e.CreateRule(rule.Def{
		Name:   "on-ping",
		Event:  "external(Ping)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
		EC:     "immediate", CA: "immediate",
	}); err != nil {
		return err
	}
	tx := e.Begin()
	inproc, err := measure(n, func(i int) error {
		return e.SignalEvent(tx, "Ping", map[string]datum.Value{"n": datum.Int(int64(i))})
	})
	if err != nil {
		return err
	}
	tx.Commit()
	row("in-process", inproc)
	e.Close()

	// Over IPC.
	e2, err := newBase()
	if err != nil {
		return err
	}
	defer e2.Close()
	srv := server.New(e2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.DefineEvent("Ping", "n"); err != nil {
		return err
	}
	if err := c.CreateRule(rule.Def{
		Name:   "on-ping",
		Event:  "external(Ping)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
		EC:     "immediate", CA: "immediate",
	}); err != nil {
		return err
	}
	ctx, err := c.Begin()
	if err != nil {
		return err
	}
	ipcPer, err := measure(n, func(i int) error {
		return c.SignalEvent(ctx, "Ping", map[string]datum.Value{"n": datum.Int(int64(i))})
	})
	if err != nil {
		return err
	}
	ctx.Commit()
	row("over IPC (TCP loopback)", ipcPer)
	return nil
}

// --- C13 ---

// expC13 measures durable (fsync) commit throughput as committer
// concurrency grows. With group commit, concurrent committers share
// WAL flushes, so fsyncs/commit drops below 1.0 and per-commit cost
// falls even though every commit is individually durable.
func expC13(quick bool) error {
	row("committers", "per commit", "commits/sec", "fsyncs/commit")
	n := iters(quick, 2000)
	for _, g := range []int{1, 2, 4, 8, 16} {
		dir, err := os.MkdirTemp("", "hipac-bench-c13-")
		if err != nil {
			return err
		}
		e, err := core.Open(core.Options{Dir: dir, Clock: clock.NewVirtual(workload.Epoch)})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		runOne := func() error {
			if err := workload.DefineBase(e); err != nil {
				return err
			}
			oids, err := workload.SeedStocks(e, g)
			if err != nil {
				return err
			}
			// Warm the commit path before counting.
			for i := 0; i < 20; i++ {
				if err := workload.UpdateOne(e, oids[0], float64(i)); err != nil {
					return err
				}
			}
			base := e.Stats().Store
			perG := n / g
			if perG == 0 {
				perG = 1
			}
			errs := make(chan error, g)
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(oid datum.OID) {
					defer wg.Done()
					for k := 0; k < perG; k++ {
						if err := workload.UpdateOne(e, oid, float64(k)); err != nil {
							errs <- err
							return
						}
					}
				}(oids[w])
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(errs)
			for err := range errs {
				return err
			}
			st := e.Stats().Store
			commits := st.TopCommits - base.TopCommits
			fsyncs := st.WALFsyncs - base.WALFsyncs
			row(fmt.Sprint(g), elapsed/time.Duration(commits),
				int(float64(commits)/elapsed.Seconds()),
				fmt.Sprintf("%.3f", float64(fsyncs)/float64(commits)))
			tailRow(e, "commit_stall", "wal_sync", "wal_group_size")
			return nil
		}
		err = runOne()
		e.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}

// --- C14 ---

// expC14 measures commit latency while a fuzzy checkpointer runs.
// Checkpointing is non-quiescent — the snapshot is cut under a read
// lock and the WAL truncated while commits proceed — so reclaiming
// log space should show up as WAL bytes reclaimed, not as a
// commit-latency cliff: the bar is commit p99 within 2x of the
// checkpointer-off baseline.
func expC14(quick bool) error {
	row("checkpointer", "per commit", "commits/sec", "checkpoints", "wal reclaimed")
	n := iters(quick, 2000)
	const g = 8
	for _, interval := range []time.Duration{0, 25 * time.Millisecond, 5 * time.Millisecond} {
		dir, err := os.MkdirTemp("", "hipac-bench-c14-")
		if err != nil {
			return err
		}
		e, err := core.Open(core.Options{Dir: dir, Clock: clock.NewVirtual(workload.Epoch),
			CheckpointInterval: interval})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		runOne := func() error {
			if err := workload.DefineBase(e); err != nil {
				return err
			}
			oids, err := workload.SeedStocks(e, g)
			if err != nil {
				return err
			}
			// Warm the commit path before counting.
			for i := 0; i < 20; i++ {
				if err := workload.UpdateOne(e, oids[0], float64(i)); err != nil {
					return err
				}
			}
			base := e.Stats().Store
			perG := n / g
			if perG == 0 {
				perG = 1
			}
			errs := make(chan error, g)
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(oid datum.OID) {
					defer wg.Done()
					for k := 0; k < perG; k++ {
						if err := workload.UpdateOne(e, oid, float64(k)); err != nil {
							errs <- err
							return
						}
					}
				}(oids[w])
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(errs)
			for err := range errs {
				return err
			}
			st := e.Stats().Store
			commits := st.TopCommits - base.TopCommits
			label := "off"
			if interval > 0 {
				label = "every " + interval.String()
			}
			row(label, elapsed/time.Duration(commits),
				int(float64(commits)/elapsed.Seconds()),
				st.Checkpoints-base.Checkpoints,
				st.WALBytesReclaimed-base.WALBytesReclaimed)
			tailRow(e, "commit_stall", "checkpoint", "wal_bytes_reclaimed")
			return nil
		}
		err = runOne()
		e.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}

// expC15: commit p99 while WAL growth drives background delta
// checkpoints. The size trigger fires off the commit path (the group
// flush only kicks a goroutine), so tightening the byte budget should
// raise checkpoint frequency — visible in the full/delta counts and
// delta_records — without moving the commit tail.
func expC15(quick bool) error {
	row("trigger", "per commit", "commits/sec", "full/delta", "wal reclaimed")
	n := iters(quick, 8000)
	const g = 8
	for _, after := range []uint64{0, 64 << 10, 16 << 10} {
		dir, err := os.MkdirTemp("", "hipac-bench-c15-")
		if err != nil {
			return err
		}
		e, err := core.Open(core.Options{Dir: dir, Clock: clock.NewVirtual(workload.Epoch),
			CheckpointAfterBytes: after})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		runOne := func() error {
			if err := workload.DefineBase(e); err != nil {
				return err
			}
			oids, err := workload.SeedStocks(e, g)
			if err != nil {
				return err
			}
			for i := 0; i < 20; i++ {
				if err := workload.UpdateOne(e, oids[0], float64(i)); err != nil {
					return err
				}
			}
			base := e.Stats().Store
			perG := n / g
			if perG == 0 {
				perG = 1
			}
			errs := make(chan error, g)
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(oid datum.OID) {
					defer wg.Done()
					for k := 0; k < perG; k++ {
						if err := workload.UpdateOne(e, oid, float64(k)); err != nil {
							errs <- err
							return
						}
					}
				}(oids[w])
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(errs)
			for err := range errs {
				return err
			}
			// Let an in-flight background checkpoint finish before
			// reading counters: the trigger only kicks a goroutine.
			for prev := ^uint64(0); ; {
				cur := e.Stats().Store.Checkpoints
				if cur == prev {
					break
				}
				prev = cur
				time.Sleep(80 * time.Millisecond)
			}
			st := e.Stats().Store
			commits := st.TopCommits - base.TopCommits
			label := "off"
			if after > 0 {
				label = fmt.Sprintf("after %dKiB", after>>10)
			}
			row(label, elapsed/time.Duration(commits),
				int(float64(commits)/elapsed.Seconds()),
				fmt.Sprintf("%d/%d", st.FullCheckpoints-base.FullCheckpoints,
					st.DeltaCheckpoints-base.DeltaCheckpoints),
				st.WALBytesReclaimed-base.WALBytesReclaimed)
			tailRow(e, "commit_stall", "checkpoint", "delta_records")
			return nil
		}
		err = runOne()
		if errs := e.AsyncErrors(); err == nil && len(errs) > 0 {
			err = errs[0]
		}
		e.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}
