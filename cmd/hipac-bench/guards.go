// C22 — rule discrimination at signal time: the cost of one signal as
// the number of rules subscribed to its event grows from 1 to 10 000,
// when the rules' conditions test event arguments (the paper's "buy
// when the price reaches 50", one rule per symbol). Every quote names
// one symbol and one quote in a hundred is at or above the limit, so a
// signal satisfies at most one rule whatever their number: the
// dispatch table's predicate index finds that rule's candidate with
// one hash probe and schedules a firing only for the 1 % of quotes
// its price guard lets through. Without the index every signal
// schedules one separate firing — goroutine, transaction, rule lock,
// snapshot, plan — per subscribed rule.
package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/txn"
	"repro/internal/workload"
)

const (
	c22Limit      = 50.0
	c22Satisfying = 100 // one quote in this many reaches the limit
)

func expC22(quick bool) error {
	signals, reps := 100_000, 3
	if quick {
		signals, reps = 20_000, 2
	}
	row("rules on the event", "per signal", "firings scheduled")
	per := map[int]time.Duration{}
	for _, n := range []int{1, 64, 1024, 10_000} {
		var err error
		if per[n], err = c22Cell(n, signals, reps); err != nil {
			return fmt.Errorf("%d rules: %w", n, err)
		}
		recordMetric(fmt.Sprintf("C22/signal/rules=%d", n), float64(per[n]))
		row(n, per[n].Round(10*time.Nanosecond), signals/c22Satisfying)
	}
	ratio := float64(per[10_000]) / float64(per[1])
	row("10 000 rules / 1 rule", fmt.Sprintf("%.2fx", ratio))
	if ratio > 4 {
		return fmt.Errorf("a signal over 10 000 rules costs %.1fx one over 1 rule, above the 4x bar", ratio)
	}
	return nil
}

// c22Cell returns the cost of one signal at an event with n trading
// rules, checking that exactly the satisfiable firings were scheduled
// and ran.
func c22Cell(n, signals, reps int) (time.Duration, error) {
	e, _ := workload.MustEngine()
	defer e.Close()
	if err := workload.DefineBase(e); err != nil {
		return 0, err
	}
	if _, err := workload.SeedStocks(e, 1); err != nil {
		return 0, err
	}
	var trades atomic.Int64
	e.RegisterCall("trade", func(*txn.Txn, map[string]datum.Value) error {
		trades.Add(1)
		return nil
	})
	if err := workload.QuoteBuyRules(e, n, c22Limit, "trade"); err != nil {
		return 0, err
	}
	syms := make([]datum.Value, n)
	for i := range syms {
		syms[i] = datum.Str(workload.QuoteSymbol(i))
	}
	quotes := func(count int) error {
		for i := 0; i < count; i++ {
			price := c22Limit - 1
			if i%c22Satisfying == 0 {
				price = c22Limit + 1
			}
			if err := e.SignalEvent(nil, workload.QuoteEvent, map[string]datum.Value{
				"sym": syms[i%n], "price": datum.Float(price)}); err != nil {
				return err
			}
		}
		e.Quiesce()
		return nil
	}
	if err := quotes(c22Satisfying); err != nil { // warm the firing path
		return 0, err
	}
	// A signal is a microsecond or two, so one collection of the
	// 10 000-rule heap inside a rep would decide the cell: best of
	// reps, each started from a collected heap.
	var best time.Duration
	want := uint64(signals / c22Satisfying)
	for r := 0; r < reps; r++ {
		runtime.GC()
		before, tradesBefore := e.Stats().Rules, trades.Load()
		start := time.Now()
		if err := quotes(signals); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		if acted := uint64(trades.Load() - tradesBefore); acted != want {
			return 0, fmt.Errorf("%d actions for %d satisfying quotes", acted, want)
		}
		if scheduled := e.Stats().Rules.Triggered - before.Triggered; scheduled != want {
			return 0, fmt.Errorf("%d firings scheduled for %d satisfying quotes: "+
				"rules a guard rules out were not filtered", scheduled, want)
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	if errs := e.AsyncErrors(); len(errs) > 0 {
		return 0, fmt.Errorf("async errors: %v", errs)
	}
	return best / time.Duration(signals), nil
}
