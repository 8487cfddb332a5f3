// C17: composite-event runtime throughput. Eight workers signal an
// external PriceDrop event round-robin over a set of tickers; every
// signal advances the aggregate template `count(PriceDrop where
// ticker=$t) >= K within 1m` of each defined rule, so per-signal cost
// scales with rule fan-out while the live NFA-instance population
// scales with the ticker count. The cells feed the BENCH_10.json
// baseline alongside C16's.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/rule"
	"repro/internal/txn"
	"repro/internal/workload"
)

// smokeCEP returns the C17 parallel workload for one (tickers,
// fanout) cell. Each rule uses a distinct aggregate threshold so it
// gets its own detector subscription and template — fan-out multiplies
// the NFA work per signal, not just the rule dispatch. Thresholds
// start at 50 so firings (and their separate-coupling action
// goroutines) happen continuously but don't dominate the signal path.
func smokeCEP(tickers, fanout int) func(procs int, dur time.Duration) (float64, error) {
	return func(procs int, dur time.Duration) (float64, error) {
		e, _ := workload.MustEngine()
		defer e.Close()
		e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
		if err := e.DefineEvent("PriceDrop", "ticker", "price"); err != nil {
			return 0, err
		}
		for i := 0; i < fanout; i++ {
			def := rule.Def{
				Name:   fmt.Sprintf("agg-%03d", i),
				Event:  fmt.Sprintf("count(PriceDrop where ticker=$t) >= %d within 1m", 50+i),
				Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
				EC:     "immediate", CA: "immediate",
			}
			if _, err := e.CreateRule(def); err != nil {
				return 0, err
			}
		}
		names := make([]datum.Value, tickers)
		for i := range names {
			names[i] = datum.Str(fmt.Sprintf("T%05d", i))
		}
		ns, err := runParallel(procs, dur, func(w int, stop *atomic.Bool) (int, error) {
			i := 0
			for !stop.Load() {
				i++
				args := map[string]datum.Value{
					"ticker": names[(i*7+w*1031)%tickers],
					"price":  datum.Float(float64(i)),
				}
				if err := e.SignalEvent(nil, "PriceDrop", args); err != nil {
					return i, err
				}
			}
			return i, nil
		})
		e.Quiesce()
		return ns, err
	}
}

// expC17 sweeps active-instance count (tickers) against rule fan-out
// at 8 procs, best of the timed reps per cell. ns/signal should grow
// roughly linearly with fan-out (each signal advances every template)
// and stay near-flat in the ticker count (instances hash to
// independent shards; only the map grows).
func expC17(quick bool) error {
	dur := 250 * time.Millisecond
	reps := 3
	if quick {
		dur = 80 * time.Millisecond
		reps = 2
	}
	tickerCounts := []int{16, 256, 4096}
	fanouts := []int{1, 16}
	row("tickers", "f1 ns/signal", "f16 ns/signal", "f16/f1")
	for _, tc := range tickerCounts {
		best := map[int]float64{}
		for _, f := range fanouts {
			for r := 0; r < reps; r++ {
				ns, err := smokeCEP(tc, f)(8, dur)
				if err != nil {
					return fmt.Errorf("t%d/f%d: %w", tc, f, err)
				}
				if best[f] == 0 || ns < best[f] {
					best[f] = ns
				}
			}
			recordMetric(fmt.Sprintf("C17/t%d/f%d", tc, f), best[f])
		}
		row(fmt.Sprintf("%d", tc),
			time.Duration(best[1]).Round(time.Nanosecond),
			time.Duration(best[16]).Round(time.Nanosecond),
			fmt.Sprintf("%.2f", best[16]/best[1]))
	}
	return nil
}
