package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/rule"
	"repro/internal/txn"
)

// cep_stream uses the event layer the other way round: external and
// composite events where saa_pipeline has database events. Two senders
// signal PriceDrop (and, one time in eight, Confirm) for Zipf-skewed
// tickers into an in-memory engine holding sixteen composite rules:
// eight windowed counts, four tumbling windows and four sequences. The
// event detectors and the cep runtime do most of the work; storage sees
// one small write per tumbling firing.
//
// The run is in two phases (see twoPhase): an open loop at a fixed rate,
// a little under half of what the seed commit saturates at, then a
// closed loop.
const (
	cepTickers      = 4096
	cepZipfS        = 1.1
	cepConfirmEvery = 8
	cepOpenRate     = 8_000 // signals per second in phase A, both senders together
	cepRing         = 1 << 16
	cepQueueBound   = 1024 // firing transactions in flight that the senders tolerate
	cepQueuePoll    = 32   // signals between two looks at that number
	cepCountWindow  = time.Second
)

var (
	cepCountK  = [8]int{4, 6, 8, 12, 16, 24, 32, 48}
	cepTumbleN = [4]int{4, 8, 16, 32}
	cepWithinW = [4]time.Duration{250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond, time.Second}
)

// cepGen is one sender's input stream. The tickers are split between
// the senders — sender c owns the tickers congruent to c — so each
// ticker's signals have one order, which the bounds on the
// time-windowed rules need.
type cepGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newCepGen(seed int64, sender int) *cepGen {
	rng := rand.New(rand.NewSource(seed*32452843 + int64(sender)))
	return &cepGen{rng: rng, zipf: rand.NewZipf(rng, cepZipfS, 1, cepTickers/loadGoroutines-1)}
}

// next draws the sender-local ticker rank, whether the signal is a
// Confirm, and a price.
func (g *cepGen) next() (local int, confirm bool, price float64) {
	return int(g.zipf.Uint64()), g.rng.Intn(cepConfirmEvery) == 0, 40 + float64(g.rng.Intn(2000))/100
}

// cepTicker is what a sender remembers about one of its tickers to
// bound what the time-windowed rules must have fired.
type cepTicker struct {
	drops int64
	// A block of K consecutive drops that fit in the count window
	// contains at least one firing of the count-K rule.
	blockStart [8]int64
	blockLen   [8]int32
	// Issue times of the drops since the last Confirm, newest
	// cep.DefaultMaxPartials of them.
	recent [cep.DefaultMaxPartials]int64
	since  int64
}

type cepSender struct {
	*tracker
	gen     *cepGen
	tickers []cepTicker
	// Bounds accumulated over the run.
	countLower  [8]int64
	withinLower [4]int64
	withinUpper [4]int64
}

type cepWorkload struct {
	e       *core.Engine
	names   []datum.Value
	index   map[string]int
	senders [loadGoroutines]*cepSender

	fire      atomic.Pointer[recorder]
	fired     [16]atomic.Int64
	tumbled   [4][]atomic.Int64 // tumbling firings by rule and ticker
	delivered atomic.Int64
}

func (w *cepWorkload) setup(cfg runCfg) error {
	e, err := core.Open(core.Options{})
	if err != nil {
		return err
	}
	w.e = e
	w.names = make([]datum.Value, cepTickers)
	w.index = make(map[string]int, cepTickers)
	tx := e.Begin()
	if err := e.DefineClass(tx, object.Class{Name: "Alert", Attrs: []object.AttrDef{
		{Name: "ticker", Kind: datum.KindString, Required: true, Indexed: true},
		{Name: "last_seq", Kind: datum.KindInt},
	}}); err != nil {
		tx.Abort()
		return err
	}
	for i := range w.names {
		name := fmt.Sprintf("T%04d", i)
		w.names[i] = datum.Str(name)
		w.index[name] = i
		if _, err := e.Create(tx, "Alert", map[string]datum.Value{"ticker": w.names[i], "last_seq": datum.Int(-1)}); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for c := range w.senders {
		w.senders[c] = &cepSender{tracker: newTracker(c, cepRing), gen: newCepGen(cfg.seed, c),
			tickers: make([]cepTicker, cepTickers/loadGoroutines)}
	}
	for r := range w.tumbled {
		w.tumbled[r] = make([]atomic.Int64, cepTickers)
	}
	if err := e.DefineEvent("PriceDrop", "ticker", "price", "seq"); err != nil {
		return err
	}
	if err := e.DefineEvent("Confirm", "ticker", "seq"); err != nil {
		return err
	}
	for i, def := range cepRules() {
		i := i
		e.RegisterCall(def.Action[0].Fn, func(_ *txn.Txn, args map[string]datum.Value) error {
			w.fired1(i, args)
			return nil
		})
		if _, err := e.CreateRule(def); err != nil {
			return fmt.Errorf("rule %s: %w", def.Name, err)
		}
	}
	return nil
}

// cepRules are the sixteen composite rules: counts first, then
// tumbling windows, then sequences. Every action calls back into the
// benchmark; a tumbling firing also records the signal in its ticker's
// Alert.
func cepRules() []rule.Def {
	var defs []rule.Def
	add := func(name, event string, steps ...rule.Step) {
		call := rule.Step{Kind: rule.StepCall, Fn: "fire-" + name}
		defs = append(defs, rule.Def{Name: name, Event: event, Action: append([]rule.Step{call}, steps...),
			EC: "separate", CA: "immediate"})
	}
	for _, k := range cepCountK {
		add(fmt.Sprintf("count-%02d", k),
			fmt.Sprintf("count(PriceDrop where ticker=$t) >= %d within %s", k, cepCountWindow))
	}
	for _, n := range cepTumbleN {
		add(fmt.Sprintf("tumbling-%02d", n), fmt.Sprintf("tumbling(PriceDrop, %d where ticker=$t)", n),
			rule.Step{Kind: rule.StepModify, Target: "a", Attrs: map[string]string{"last_seq": "event.seq"}})
		defs[len(defs)-1].Condition = []string{"select a from Alert a where a.ticker = event.ticker"}
	}
	for _, d := range cepWithinW {
		add(fmt.Sprintf("within-%s", d), fmt.Sprintf("within(PriceDrop, Confirm, %s where ticker=$t)", d))
	}
	return defs
}

func (w *cepWorkload) close() {
	if w.e != nil {
		w.e.Close()
	}
}

// fired1 is the application callback of rule i. The composite firing
// carries the sequence number of the signal that completed it.
func (w *cepWorkload) fired1(i int, args map[string]datum.Value) {
	seq := uint64(args["seq"].AsInt())
	w.senders[seqClient(seq)].delivered("app.fire", seq, w.fire.Load())
	w.fired[i].Add(1)
	if t := i - len(cepCountK); t >= 0 && t < len(cepTumbleN) {
		w.tumbled[t][w.index[args["ticker"].AsString()]].Add(1)
	}
	w.delivered.Add(1)
}

// awaitRoom bounds the work in flight: the senders stall while more
// than cepQueueBound firing transactions are live. The engine itself
// never pushes back, so without a bound a saturated run piles up firing
// goroutines faster than they finish and measures how fast signals are
// accepted, not how fast they are processed. Counting live transactions
// rather than undelivered callbacks matters: a tumbling firing calls
// back first and then waits for its Alert's lock, and with only the
// callbacks bounded those waiters pile up behind a hot ticker until the
// whole engine convoys (seen: throughput falling from 19 000 to 2 000
// signals a second within one run and staying there).
func (w *cepWorkload) awaitRoom() {
	awaitRoom(func() bool { return w.e.Txns.Live() <= cepQueueBound })
}

// signal sends one signal, timed from at, and updates the sender's
// bounds with when the engine can have seen it.
func (w *cepWorkload) signal(s *cepSender, at int64) error {
	if s.n%cepQueuePoll == 0 {
		w.awaitRoom()
	}
	local, confirm, price := s.gen.next()
	ticker := local*loadGoroutines + s.client
	seq, root := s.issue(at)
	name, args := "PriceDrop", map[string]datum.Value{
		"ticker": w.names[ticker], "price": datum.Float(price), "seq": datum.Int(int64(seq))}
	if confirm {
		name = "Confirm"
		delete(args, "price")
	}
	issue := nowNs()
	sp := tr.begin("event.signal", seq, root)
	err := w.e.SignalEvent(nil, name, args)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}
	s.observe(&s.tickers[local], confirm, issue, nowNs())
	return nil
}

// observe folds one signal, which the engine stamped somewhere in
// [issue, ret], into the bounds.
func (s *cepSender) observe(t *cepTicker, confirm bool, issue, ret int64) {
	if confirm {
		kept := t.since
		if kept > int64(len(t.recent)) {
			kept = int64(len(t.recent))
		}
		for j, window := range cepWithinW {
			s.withinUpper[j] += kept
			for i := int64(0); i < kept; i++ {
				if ret-t.recent[(t.since-1-i)%int64(len(t.recent))] <= int64(window) {
					s.withinLower[j]++
				}
			}
		}
		t.since = 0
		return
	}
	t.drops++
	t.recent[t.since%int64(len(t.recent))] = issue
	t.since++
	for j, k := range cepCountK {
		if t.blockLen[j] == 0 {
			t.blockStart[j] = issue
		}
		t.blockLen[j]++
		if int(t.blockLen[j]) == k {
			if ret-t.blockStart[j] <= int64(cepCountWindow) {
				s.countLower[j]++
			}
			t.blockLen[j] = 0
		}
	}
}

func (w *cepWorkload) run(cfg runCfg) (*outcome, error) {
	out := newOutcome()
	var open []paced
	var closed []func() (int64, error)
	for _, s := range w.senders {
		s := s
		open = append(open, paced{perSec: cepOpenRate / loadGoroutines,
			op: func(due int64) error { return w.signal(s, due) }})
		closed = append(closed, func() (int64, error) {
			at := nowNs()
			return at, w.signal(s, at)
		})
	}
	tp := runTwoPhase(cfg, w.e, &w.fire, open, closed)

	var firings int64
	drain(w.e, func() bool {
		firings = int64(w.e.Stats().Detectors.CEPFirings)
		return w.delivered.Load() >= firings
	})

	tp.userMetrics(out)
	out.attempted = tp.attempted() + firings
	out.failed = tp.failed() + (firings - w.delivered.Load())
	out.asyncErrors(w.e)
	w.check(out, firings)

	if cfg.trace {
		traceMetrics(out, tp.closed, tp.before, tp.after, 0)
		out.vals["bench.gen_lag_p99_us"] = quantile(allLatencies([]*recorder{tp.open.lag}, tp.open.start, tp.open.end), 0.99)
		runProbes(out, w.e, probeSet{
			dir:        cfg.dir,
			indexQuery: "select a from Alert a where a.ticker = event.ticker",
			queryArgs:  map[string]datum.Value{"ticker": w.names[0]},
			eventArgs:  map[string]datum.Value{"ticker": w.names[0], "seq": datum.Int(0), "price": datum.Float(50)},
		})
	}
	return out, nil
}

// check holds the firings delivered against what the signals sent
// allow: exactly for the tumbling windows, between bounds for the rules
// that depend on when the engine saw each signal.
func (w *cepWorkload) check(out *outcome, firings int64) {
	if got := w.delivered.Load(); got != firings {
		out.problemf("callbacks ran %d times for %d composite firings", got, firings)
	}
	drops := make([]int64, cepTickers)
	for _, s := range w.senders {
		for local := range s.tickers {
			drops[local*loadGoroutines+s.client] = s.tickers[local].drops
		}
	}
	for r, n := range cepTumbleN {
		for t, d := range drops {
			if got, want := w.tumbled[r][t].Load(), d/int64(n); got != want {
				out.problemf("tumbling-%d fired %d times for ticker %d after %d drops, want %d", n, got, t, d, want)
			}
		}
	}
	for j, k := range cepCountK {
		var lower, upper int64
		for _, d := range drops {
			upper += d / int64(k)
		}
		for _, s := range w.senders {
			lower += s.countLower[j]
		}
		if got := w.fired[j].Load(); got < lower || got > upper {
			out.problemf("count-%d fired %d times, outside [%d, %d]", k, got, lower, upper)
		}
	}
	for j, d := range cepWithinW {
		var lower, upper int64
		for _, s := range w.senders {
			lower += s.withinLower[j]
			upper += s.withinUpper[j]
		}
		if got := w.fired[len(cepCountK)+len(cepTumbleN)+j].Load(); got < lower || got > upper {
			out.problemf("within-%s fired %d times, outside [%d, %d]", d, got, lower, upper)
		}
	}
}
