package core

// Engine-level tests of rule discrimination at signal time: guards
// never change which actions run (only how many firings are scheduled
// to find that out), the dispatch table follows the rule lifecycle
// under concurrent signalers, and a signal's cost does not grow with
// the rules it cannot satisfy.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/rule"
	"repro/internal/txn"
)

// eventTerms are type-safe event-only conjuncts: a and c are numbers,
// null or missing, b is anything, and cross-kind operands meet only
// under = and !=, so no signal makes the evaluator fail. The
// differential test compares action sequences, and a hard error in one
// conjunct is the one case a guard is allowed to pre-empt.
var eventTerms = []string{
	"event.a > %d", "event.a <= %d", "%d <= event.a", "event.a = %d", "event.a != %d",
	"event.b = 'x'", "event.b != 'y'", "event.b = %d", "event.a = 'x'",
	"(event.a = %d or event.b = 'x')", "not (event.a < %d)", "not (event.b = 'y')",
	"(event.a > %d and event.c > %d)", "event.c = null", "event.c >= %d",
}

var (
	numberVals = []datum.Value{datum.Null(), datum.Int(0), datum.Int(1), datum.Int(2), datum.Int(3), datum.Float(1.5)}
	anyVals    = append([]datum.Value{datum.Str("x"), datum.Str("y"), datum.Bool(true)}, numberVals...)
)

func fillTerm(rng *rand.Rand, term string) string {
	for strings.Contains(term, "%d") {
		term = strings.Replace(term, "%d", fmt.Sprint(rng.Intn(4)), 1)
	}
	return term
}

// genTwinCondition returns one condition twice: as written, and with
// every event-only conjunct X spelled (X or s != s) — the same truth
// value (s != s is false), but a reference to the range variable, so
// the twin has no guards and every one of its firings is scheduled.
func genTwinCondition(rng *rand.Rand) (guarded, unguarded []string) {
	for n := rng.Intn(3); n > 0; n-- {
		var g, u []string
		if rng.Intn(3) != 0 {
			row := fillTerm(rng, []string{"s.price >= %d", "s.symbol != 'S1'", "s.price > event.a"}[rng.Intn(3)])
			g, u = append(g, row), append(u, row)
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			x := fillTerm(rng, eventTerms[rng.Intn(len(eventTerms))])
			g, u = append(g, x), append(u, "("+x+" or s != s)")
		}
		sel := "select s.symbol as sym from Stock s where "
		if rng.Intn(5) == 0 {
			sel = "select count(*) as n from Stock s where " // no guards either way
		}
		guarded = append(guarded, sel+strings.Join(g, " and "))
		unguarded = append(unguarded, sel+strings.Join(u, " and "))
	}
	return guarded, unguarded
}

// actionLog collects what the rules of one engine did for the signal
// in flight.
type actionLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *actionLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.entries
	l.entries = nil
	sort.Strings(out) // firings of one signal run concurrently
	return out
}

func TestGuardedAndUnguardedEnginesAgree(t *testing.T) {
	couplings := []string{"immediate", "deferred", "separate"}
	rng := rand.New(rand.NewSource(41))
	var filtered, actions uint64
	for _, ec := range couplings {
		for _, ca := range couplings {
			for round := 0; round < 3; round++ {
				f, a := runTwinEngines(t, rng, ec, ca)
				filtered += f
				actions += a
			}
		}
	}
	if filtered == 0 || actions == 0 {
		t.Fatalf("vacuous: %d firings filtered, %d actions executed", filtered, actions)
	}
}

func runTwinEngines(t *testing.T, rng *rand.Rand, ec, ca string) (filtered, actions uint64) {
	engines := [2]*Engine{}
	logs := [2]*actionLog{{}, {}}
	for i := range engines {
		e, _ := newEngine(t)
		defineStockAndAudit(t, e)
		for k := 0; k < 4; k++ {
			createStock(t, e, fmt.Sprintf("S%d", k), float64(k))
		}
		if err := e.DefineEvent("E"); err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	for r := 0; r < 10; r++ {
		guarded, unguarded := genTwinCondition(rng)
		name := fmt.Sprintf("r%d", r)
		for i, conds := range [2][]string{guarded, unguarded} {
			log := logs[i]
			engines[i].RegisterCall(name, func(_ *txn.Txn, b map[string]datum.Value) error {
				log.mu.Lock()
				log.entries = append(log.entries, fmt.Sprintf("%s(%v)", name, b["sym"]))
				log.mu.Unlock()
				return nil
			})
			if _, err := engines[i].CreateRule(rule.Def{Name: name, Event: "external(E)", Condition: conds,
				Action: []rule.Step{{Kind: rule.StepCall, Fn: name}}, EC: ec, CA: ca}); err != nil {
				t.Fatalf("%v: %v", conds, err)
			}
		}
	}
	for s := 0; s < 25; s++ {
		args := map[string]datum.Value{}
		for name, vals := range map[string][]datum.Value{"a": numberVals, "b": anyVals, "c": numberVals} {
			if rng.Intn(5) != 0 {
				args[name] = vals[rng.Intn(len(vals))]
			}
		}
		noTxn := rng.Intn(4) == 0 // outside any transaction every coupling degrades to separate
		var did [2][]string
		for i, e := range engines {
			var tx *txn.Txn
			if !noTxn {
				tx = e.Begin()
			}
			err := e.SignalEvent(tx, "E", args)
			if tx != nil && err == nil {
				err = tx.Commit()
			}
			e.Quiesce()
			did[i] = logs[i].take()
			if err != nil {
				did[i] = append(did[i], "error: "+err.Error())
			}
			if errs := e.AsyncErrors(); len(errs) > 0 {
				t.Fatalf("%s/%s: async errors %v", ec, ca, errs)
			}
		}
		if fmt.Sprint(did[0]) != fmt.Sprint(did[1]) {
			t.Fatalf("%s/%s signal %v:\nguarded   %v\nunguarded %v", ec, ca, args, did[0], did[1])
		}
	}
	g, u := engines[0].Stats().Rules, engines[1].Stats().Rules
	if u.Filtered != 0 || g.Triggered+g.Filtered != u.Triggered || g.ActionsExecuted != u.ActionsExecuted {
		t.Fatalf("%s/%s: guarded %+v\nunguarded %+v", ec, ca, g, u)
	}
	return g.Filtered, g.ActionsExecuted
}

func TestManualFireBypassesGuards(t *testing.T) {
	// Fire does not consult the dispatch table: the full condition —
	// guard conjunct included — is evaluated for a disabled rule and
	// for bindings the guard rejects.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	def := auditRule("buy", "immediate", "immediate")
	def.Condition = []string{"select s from Stock s where s = event.oid and event.new_price >= 50"}
	def.Disabled = true
	if _, err := e.CreateRule(def); err != nil {
		t.Fatal(err)
	}
	for i, price := range []float64{40, 60} {
		before := e.Stats().Conditions.Evaluations
		tx := e.Begin()
		if err := e.FireRule(tx, "buy", map[string]datum.Value{"oid": datum.ID(oid), "new_price": datum.Float(price)}); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Conditions.Evaluations - before; got != 1 {
			t.Fatalf("manual fire at %v evaluated %d queries, want the full condition once", price, got)
		}
		if got := auditCountIn(t, e, tx); got != i {
			t.Fatalf("after firing at %v: %d audit rows, want %d", price, got, i)
		}
		tx.Commit()
	}
	if st := e.Stats().Rules; st.Filtered != 0 || st.Triggered != 0 {
		t.Fatalf("manual firings went through the dispatch table: %+v", st)
	}
}

func TestFilteredCounterAndMetric(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	for i, limit := range []int{50, 60, 70} {
		def := auditRule(fmt.Sprintf("buy-%d", i), "separate", "immediate")
		def.Condition = []string{fmt.Sprintf("select s from Stock s where s = event.oid and event.new_price >= %d", limit)}
		if _, err := e.CreateRule(def); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(65)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	e.Quiesce()
	st := e.Stats().Rules
	if st.Triggered != 2 || st.Filtered != 1 || st.SeparateFirings != 2 || st.ActionsExecuted != 2 {
		t.Fatalf("stats = %+v, want 2 scheduled and 1 filtered", st)
	}
	var buf bytes.Buffer
	if err := e.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hipac_rule_filtered_total 1\n") {
		t.Fatal("hipac_rule_filtered_total missing from the Prometheus output")
	}
	if got := st.RuleFirings; len(got) != 2 || got["buy-0"] != 1 || got["buy-1"] != 1 {
		t.Fatalf("per-rule firings = %v", got)
	}
}

func TestRuleFiringCountersAreCapped(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	if err := e.DefineEvent("Tick"); err != nil {
		t.Fatal(err)
	}
	e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
	const extra = 5
	for i := 0; i < rule.MaxFiringCounters+extra; i++ {
		if _, err := e.CreateRule(rule.Def{Name: fmt.Sprintf("r%04d", i), Event: "external(Tick)",
			Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}}}); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.Begin()
	if err := e.SignalEvent(tx, "Tick", nil); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	got := e.Stats().Rules.RuleFirings
	if len(got) != rule.MaxFiringCounters+1 || got[rule.FiringOverflowKey] != extra || got["r0000"] != 1 {
		t.Fatalf("%d counters, overflow %d", len(got), got[rule.FiringOverflowKey])
	}
}

func TestTenThousandGuardedRulesOneFires(t *testing.T) {
	// 10 000 separate-coupled rules on one event, each buying one
	// symbol: an update schedules exactly the one firing that can be
	// satisfied, and starts no goroutine for the other 9 999.
	const n = 10_000
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	if err := e.DefineEvent("Quote", "sym", "price"); err != nil {
		t.Fatal(err)
	}
	base := 0
	peak := make(chan int, 1)
	e.RegisterCall("trade", func(*txn.Txn, map[string]datum.Value) error {
		peak <- runtime.NumGoroutine()
		return nil
	})
	for i := 0; i < n; i++ {
		if _, err := e.CreateRule(rule.Def{
			Name:      fmt.Sprintf("buy-%05d", i),
			Event:     "external(Quote)",
			Condition: []string{fmt.Sprintf("select a from Audit a where event.sym = 'S%05d' and event.price >= 50", i)},
			Action:    []rule.Step{{Kind: rule.StepCall, Fn: "trade"}},
			EC:        "separate", CA: "immediate",
		}); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.Begin()
	if _, err := e.Create(tx, "Audit", map[string]datum.Value{"note": datum.Str("seed")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	e.Quiesce()
	before := e.Stats().Rules
	base = runtime.NumGoroutine()
	if err := e.SignalEvent(nil, "Quote", map[string]datum.Value{"sym": datum.Str("S04242"), "price": datum.Float(51)}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-peak:
		if got > base+1 {
			t.Fatalf("%d goroutines while the one firing ran, baseline %d: rejected rules were scheduled", got, base)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the matching rule never fired")
	}
	e.Quiesce()
	st := e.Stats().Rules
	if st.Triggered-before.Triggered != 1 || st.SeparateFirings-before.SeparateFirings != 1 ||
		st.Filtered-before.Filtered != n-1 || st.ActionsExecuted-before.ActionsExecuted != 1 {
		t.Fatalf("stats moved %+v -> %+v, want one firing and %d filtered", before, st, n-1)
	}
	// Wrong price: the symbol's rule is a candidate, its other guard
	// rejects it.
	if err := e.SignalEvent(nil, "Quote", map[string]datum.Value{"sym": datum.Str("S04242"), "price": datum.Float(49)}); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats().Rules; after.Triggered != st.Triggered || after.Filtered-st.Filtered != n {
		t.Fatalf("stats moved %+v -> %+v, want no firing and %d filtered", st, after, n)
	}
}

func TestGuardsOverCompositeBindings(t *testing.T) {
	// A composite signal's bindings are the constituents' merged with
	// the correlation variable and cep_count; guards test those.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	createStock(t, e, "XRX", 48)
	for _, ev := range [][]string{{"PriceDrop", "ticker", "price"}, {"Confirm", "ticker", "source"}} {
		if err := e.DefineEvent(ev[0], ev[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	audit := func(name, event, cond string) {
		t.Helper()
		if _, err := e.CreateRule(rule.Def{Name: name, Event: event,
			Condition: []string{"select s from Stock s where " + cond},
			Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit",
				Attrs: map[string]string{"note": "'" + name + ":' + event.t"}}},
			EC: "immediate", CA: "immediate"}); err != nil {
			t.Fatal(err)
		}
	}
	// One composite subscription, three rules: bindings from the first
	// constituent, from the second, and the correlation variable.
	within := "within(PriceDrop, Confirm, 30s where ticker=$t)"
	audit("cheap", within, "event.price < 10")
	audit("wire", within, "event.source = 'wire' and event.t != 'IBM'")
	audit("any", within, "s.symbol = 'XRX'")
	// cep_count on a sliding count.
	audit("burst", "count(PriceDrop where ticker=$t) >= 3 within 1m", "event.cep_count >= 3 and event.t = 'XRX'")

	signal := func(name string, args map[string]datum.Value) {
		t.Helper()
		if err := e.SignalEvent(nil, name, args); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range []string{"XRX", "IBM"} {
		for i := 0; i < 3; i++ {
			signal("PriceDrop", map[string]datum.Value{"ticker": datum.Str(tk), "price": datum.Float(5 + 10*float64(i))})
		}
	}
	signal("Confirm", map[string]datum.Value{"ticker": datum.Str("XRX"), "source": datum.Str("wire")})
	signal("Confirm", map[string]datum.Value{"ticker": datum.Str("IBM"), "source": datum.Str("wire")})
	e.Quiesce()
	if errs := e.AsyncErrors(); len(errs) != 0 {
		t.Fatal(errs)
	}
	tx := e.Begin()
	res, err := e.Query(tx, "select a.note from Audit a order by a.note", nil)
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, row := range res.Rows {
		notes = append(notes, row[0].AsString())
	}
	// within pairs the confirm with each of the ticker's three drops
	// (prices 5, 15, 25): "cheap" passes one pairing per ticker, "wire"
	// none of IBM's, "burst" only XRX's third drop.
	want := []string{"any:IBM", "any:IBM", "any:IBM", "any:XRX", "any:XRX", "any:XRX",
		"burst:XRX", "cheap:IBM", "cheap:XRX", "wire:XRX", "wire:XRX", "wire:XRX"}
	if fmt.Sprint(notes) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", notes, want)
	}
	if st := e.Stats().Rules; st.Filtered == 0 {
		t.Fatalf("no composite firing was filtered: %+v", st)
	}
}

func TestConcurrentCreatorsShareOneSubscription(t *testing.T) {
	// Eight creators racing on one new event specification must end up
	// on one detector subscription: one HandleEmit per occurrence, one
	// shared condition group.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	const creators = 8
	for round := 0; round < 25; round++ {
		name := fmt.Sprintf("Race%d", round)
		if err := e.DefineEvent(name); err != nil {
			t.Fatal(err)
		}
		subs := e.Detectors.Subscriptions()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < creators; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				def := auditRule(fmt.Sprintf("%s-%d", name, c), "immediate", "immediate")
				def.Event = "external(" + name + ")"
				if _, err := e.CreateRule(def); err != nil {
					t.Error(err)
				}
			}(c)
		}
		close(start)
		wg.Wait()
		if got := e.Detectors.Subscriptions() - subs; got != 1 {
			t.Fatalf("round %d: %d creators defined %d subscriptions, want 1", round, creators, got)
		}
		before := e.Stats().Rules
		tx := e.Begin()
		if err := e.SignalEvent(tx, name, map[string]datum.Value{"new_price": datum.Float(1)}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		after := e.Stats().Rules
		if after.Signals-before.Signals != 1 || after.ActionsExecuted-before.ActionsExecuted != creators {
			t.Fatalf("round %d: one occurrence was handled %d times, ran %d actions",
				round, after.Signals-before.Signals, after.ActionsExecuted-before.ActionsExecuted)
		}
	}
}

func TestDispatchTableLifecycleRace(t *testing.T) {
	// Create / update / disable / enable / delete race four signalers.
	// A rule left alone fires for every signal; a rule does not fire
	// for a signal raised after its DeleteRule or DisableRule returned.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	if err := e.DefineEvent("Tick", "at", "n"); err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64 // orders signals against lifecycle returns
	var stable [2]atomic.Int64
	for i, cond := range []string{"", "select a from Audit a where event.n >= 0"} {
		i := i
		name := fmt.Sprintf("stable-%d", i)
		e.RegisterCall(name, func(*txn.Txn, map[string]datum.Value) error { stable[i].Add(1); return nil })
		def := rule.Def{Name: name, Event: "external(Tick)", Action: []rule.Step{{Kind: rule.StepCall, Fn: name}}}
		if cond != "" {
			def.Condition = []string{cond}
		}
		if _, err := e.CreateRule(def); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.Begin()
	if _, err := e.Create(tx, "Audit", map[string]datum.Value{"note": datum.Str("seed")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	const (
		signalers = 4
		churners  = 2
		cycles    = 12 // per churner
	)
	var off sync.Map // rule name -> clock value when it was last switched off
	// switchedOff records that name stopped firing now, then lets a few
	// signals go by so that a firing it should not get would show. The
	// signalers run until the churners are done.
	switchedOff := func(name string) {
		at := clock.Load()
		off.Store(name, at)
		for clock.Load() < at+8 {
			runtime.Gosched()
		}
	}
	var churnDone atomic.Bool
	var wg, sigWG sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for g := 0; g < cycles; g++ {
				name := fmt.Sprintf("churn-%d-%d", c, g)
				e.RegisterCall(name, func(_ *txn.Txn, b map[string]datum.Value) error {
					if at, ok := off.Load(name); ok && b["at"].AsInt() > at.(int64) {
						t.Errorf("%s fired for signal %d, switched off at %d", name, b["at"].AsInt(), at)
					}
					return nil
				})
				def := rule.Def{Name: name, Event: "external(Tick)",
					Condition: []string{"select a from Audit a where event.n >= 0"},
					Action:    []rule.Step{{Kind: rule.StepCall, Fn: name}},
					EC:        []string{"immediate", "separate"}[g%2], CA: "immediate"}
				steps := []func() error{
					func() error { _, err := e.CreateRule(def); return err },
					func() error { // guarded -> unguarded -> guarded on another access path
						def.Condition = nil
						if _, err := e.UpdateRule(def); err != nil {
							return err
						}
						def.Condition = []string{fmt.Sprintf("select a from Audit a where event.n != %d", -1-g)}
						_, err := e.UpdateRule(def)
						return err
					},
					func() error {
						err := e.DisableRule(name)
						switchedOff(name)
						return err
					},
					func() error { off.Delete(name); return e.EnableRule(name) },
					func() error {
						err := e.DeleteRule(name)
						switchedOff(name)
						return err
					},
				}
				for _, step := range steps {
					if err := step(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	for s := 0; s < signalers; s++ {
		sigWG.Add(1)
		go func() {
			defer sigWG.Done()
			for i := 0; !churnDone.Load(); i++ {
				var tx *txn.Txn
				if i%2 == 0 {
					tx = e.Begin()
				}
				err := e.SignalEvent(tx, "Tick", map[string]datum.Value{"at": datum.Int(clock.Add(1)), "n": datum.Int(int64(i))})
				if tx != nil && err == nil {
					err = tx.Commit()
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Firings hold the rules' read locks; leave the
				// churners' write locks a gap to get in.
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	churnDone.Store(true)
	sigWG.Wait()
	e.Quiesce()
	if errs := e.AsyncErrors(); len(errs) != 0 {
		t.Fatalf("async errors: %v", errs)
	}
	for i := range stable {
		if got := stable[i].Load(); got != clock.Load() {
			t.Fatalf("stable-%d fired %d times for %d signals", i, got, clock.Load())
		}
	}
	if got := len(e.Rules.Rules()); got != len(stable) {
		t.Fatalf("%d rules left, want the %d stable ones", got, len(stable))
	}
}

func TestConditionCacheSeesCommitDuringEvaluation(t *testing.T) {
	// A condition reads at its reader's snapshot pin: a commit landing
	// between the pin and the evaluation stays invisible to it, and
	// the next reader, pinned after that commit, sees it.
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 50)
	if err := e.DefineEvent("Tick"); err != nil {
		t.Fatal(err)
	}
	def := auditRule("expensive", "separate", "immediate")
	def.Event = "external(Tick)"
	def.Condition = []string{"select s from Stock s where s.price > 100"}
	r, err := e.CreateRule(def)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{uint64(r.OID)}
	evaluate := func(before func()) bool {
		t.Helper()
		tx := e.Begin()
		defer tx.Commit()
		reader := e.Objects.SnapshotReader(tx) // the pin
		defer reader.Close()
		if before != nil {
			before()
		}
		out, err := e.Conditions.Evaluate(reader, nil, true, ids)
		if err != nil {
			t.Fatal(err)
		}
		return out[ids[0]].Satisfied
	}
	if evaluate(func() {
		tx := e.Begin()
		if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(150)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}) {
		t.Fatal("a reader pinned before the commit saw it")
	}
	if !evaluate(nil) {
		t.Fatal("a reader pinned after the commit was answered the pre-commit result")
	}
}
