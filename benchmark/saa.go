package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/saa"
)

// saa_pipeline is the paper's Figure 4.2 at rule fan-out: two ticker
// clients commit price updates into a durable in-process engine; every
// update triggers the display rule and 64 trading rules in separate
// transactions, about one update in a hundred executes a trade, and the
// trade's signal updates a portfolio and a second display. The rule,
// condition, event, transaction, lock, storage-commit and WAL layers do
// the work; ipc and the scan operators do none. The run is in two phases
// (see twoPhase): an open loop at a little under half of what the seed
// commit saturates at, then a closed loop.
//
// Sizes are frozen here; nothing is derived at run time.
const (
	saaStocks       = 2000
	saaOwners       = 500
	saaHoldings     = 10_000
	saaBuyRules     = 64
	saaZipfS        = 1.1
	saaTradeShare   = 0.01     // share of updates that satisfy a trading rule
	saaQueueBound   = 256      // undelivered displays a client tolerates
	saaOpenRate     = 400      // updates per second in the open loop, both clients together
	saaCheckpointAt = 64 << 10 // WAL bytes between size-triggered checkpoints
	saaRecoveryTail = 4_000    // commits replayed by the timed recovery
	saaRing         = 1 << 12  // in-flight table per client, > saaQueueBound
	saaPriceCents   = 2000     // prices are 40.00 .. 59.99
)

// saaGen is one ticker client's input stream: a Zipf-skewed symbol and
// a uniform price per update, from the seed alone. (internal/feed picks
// symbols uniformly; the skew is what makes hot stocks contend, so the
// benchmark draws its own.)
type saaGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newSaaGen(seed int64, client int) *saaGen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &saaGen{rng: rng, zipf: rand.NewZipf(rng, saaZipfS, 1, saaStocks-1)}
}

func (g *saaGen) next() (stock int, price float64) {
	return int(g.zipf.Uint64()), 40 + float64(g.rng.Intn(saaPriceCents))/100
}

type saaClient struct {
	*tracker
	gen     *saaGen
	last    []lastWrite // by stock
	commits int64
}

type saaWorkload struct {
	e       *core.Engine
	dir     string
	symbols []string
	stocks  []datum.OID
	// holdings by "owner|symbol"
	holdingOID map[string]datum.OID
	holdingQty map[string]int64

	clients [loadGoroutines]*saaClient
	fire    atomic.Pointer[recorder]

	displayed       atomic.Int64
	displayedTrades atomic.Int64
	trades          atomic.Int64
	traderMu        sync.Mutex // the Trader is one program: one trade at a time
	traded          map[string]int64
	handlerErr      atomic.Value
}

func saaOwner(i int) string { return fmt.Sprintf("acct%04d", i) }

func saaClasses() []object.Class {
	classes := saa.Classes()
	for i := range classes {
		if classes[i].Name == saa.ClassStock {
			// seq rides on every update so the display rule can forward
			// it and the handler can match a firing to its update.
			classes[i].Attrs = append(classes[i].Attrs, object.AttrDef{Name: "seq", Kind: datum.KindInt})
		}
	}
	return classes
}

// saaBuyLimit is the price at or above which a trading rule fires,
// set so that saaTradeShare of all updates satisfy one: the 64 rules
// sit on the 64 hottest stocks, which draw hot of the updates.
func saaBuyLimit() float64 {
	var hot, all float64
	for k := 0; k < saaStocks; k++ {
		w := math.Pow(1+float64(k), -saaZipfS)
		all += w
		if k < saaBuyRules {
			hot += w
		}
	}
	q := saaTradeShare / (hot / all)
	return 60 - math.Round(q*saaPriceCents)/100
}

// stockModifyBindings are the bindings of a modify(Stock) signal, for
// the condition probe.
func stockModifyBindings(oid datum.OID) map[string]datum.Value {
	return map[string]datum.Value{"oid": datum.ID(oid), "class": datum.Str(saa.ClassStock),
		"new_price": datum.Float(50), "old_price": datum.Float(49), "new_seq": datum.Int(0), "old_seq": datum.Int(0)}
}

func (w *saaWorkload) open(checkpointAfter uint64) error {
	e, err := core.Open(core.Options{Dir: w.dir, NoSync: true, CheckpointAfterBytes: checkpointAfter})
	if err != nil {
		return err
	}
	w.e = e
	e.RegisterAppOperation(saa.OpDisplayQuote, w.displayQuote)
	e.RegisterAppOperation(saa.OpExecuteTrade, w.executeTrade)
	e.RegisterAppOperation(saa.OpDisplayTrade, w.displayTrade)
	return nil
}

func (w *saaWorkload) setup(cfg runCfg) error {
	w.dir = filepath.Join(cfg.dir, "db")
	w.traded = map[string]int64{}
	w.holdingOID = map[string]datum.OID{}
	w.holdingQty = map[string]int64{}
	for c := range w.clients {
		w.clients[c] = &saaClient{tracker: newTracker(c, saaRing), gen: newSaaGen(cfg.seed, c),
			last: make([]lastWrite, saaStocks)}
	}
	if err := w.open(saaCheckpointAt); err != nil {
		return err
	}
	e := w.e
	tx := e.Begin()
	for _, cls := range saaClasses() {
		if err := e.DefineClass(tx, cls); err != nil {
			tx.Abort()
			return err
		}
	}
	w.symbols = make([]string, saaStocks)
	w.stocks = make([]datum.OID, saaStocks)
	for i := range w.symbols {
		w.symbols[i] = fmt.Sprintf("S%05d", i)
		oid, err := e.Create(tx, saa.ClassStock, map[string]datum.Value{
			"symbol": datum.Str(w.symbols[i]), "price": datum.Float(50), "seq": datum.Int(-1)})
		if err != nil {
			tx.Abort()
			return err
		}
		w.stocks[i] = oid
		for c := range w.clients {
			w.clients[c].last[i] = lastWrite{price: 50, seq: -1, issue: -1, ret: -1}
		}
	}
	// Owner o holds 20 distinct stocks; in particular owner r holds
	// stock r, the pair trading rule r buys for.
	for i := 0; i < saaHoldings; i++ {
		o := i % saaOwners
		s := (o + (i/saaOwners)*97) % saaStocks
		qty := int64(100 + i%50)
		oid, err := e.Create(tx, saa.ClassHolding, map[string]datum.Value{
			"owner": datum.Str(saaOwner(o)), "symbol": datum.Str(w.symbols[s]), "qty": datum.Int(qty)})
		if err != nil {
			tx.Abort()
			return err
		}
		key := saaOwner(o) + "|" + w.symbols[s]
		w.holdingOID[key] = oid
		w.holdingQty[key] = qty
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if err := e.DefineEvent(saa.EventTradeExecuted, saa.TradeEventParams...); err != nil {
		return err
	}
	display := saa.DisplayQuoteRule("display-quote")
	display.Action[0].Args["seq"] = "event.new_seq"
	if _, err := e.CreateRule(display); err != nil {
		return err
	}
	limit := saaBuyLimit()
	for r := 0; r < saaBuyRules; r++ {
		def := saa.BuyAtRule(fmt.Sprintf("buy-%02d", r), saaOwner(r), w.symbols[r], 10, limit)
		if _, err := e.CreateRule(def); err != nil {
			return err
		}
	}
	if _, err := e.CreateRule(saa.PortfolioUpdateRule("portfolio-update")); err != nil {
		return err
	}
	_, err := e.CreateRule(saa.DisplayTradeRule("display-trade"))
	return err
}

func (w *saaWorkload) close() {
	if w.e != nil {
		w.e.Close()
		w.e = nil
	}
}

// --- the application programs (§4.2): Display and Trader ---

func (w *saaWorkload) displayQuote(args map[string]datum.Value) (map[string]datum.Value, error) {
	seq := uint64(args["seq"].AsInt())
	c := w.clients[seqClient(seq)]
	c.delivered("app.display_quote", seq, w.fire.Load())
	w.displayed.Add(1)
	c.undelivered.Add(-1)
	return nil, nil
}

// executeTrade is the Trader: it executes the requested trade and
// signals TradeExecuted in its own transaction; the portfolio rule
// updates the holding immediately inside that transaction.
func (w *saaWorkload) executeTrade(args map[string]datum.Value) (map[string]datum.Value, error) {
	sp := tr.begin("app.execute_trade", 0, -1)
	defer tr.end(sp)
	w.traderMu.Lock()
	defer w.traderMu.Unlock()
	tx := w.e.Begin()
	sig := tr.begin("event.signal_trade", 0, sp)
	err := w.e.SignalEvent(tx, saa.EventTradeExecuted, args)
	tr.end(sig)
	if err != nil {
		tx.Abort()
		w.handlerErr.CompareAndSwap(nil, err)
		return nil, err
	}
	cm := tr.begin("txn.commit_trade", 0, sp)
	err = tx.Commit()
	tr.end(cm)
	if err != nil {
		w.handlerErr.CompareAndSwap(nil, err)
		return nil, err
	}
	w.traded[args["owner"].AsString()+"|"+args["symbol"].AsString()] += args["qty"].AsInt()
	w.trades.Add(1)
	return nil, nil
}

func (w *saaWorkload) displayTrade(map[string]datum.Value) (map[string]datum.Value, error) {
	w.displayedTrades.Add(1)
	return nil, nil
}

// --- the Ticker: the load ---

// update is one user operation, timed from at: a transaction that sets
// one stock's price.
func (w *saaWorkload) update(c *saaClient, at int64) error {
	stock, price := c.gen.next()
	issue := nowNs()
	seq, root := c.issue(at)

	sp := tr.begin("txn.begin", seq, root)
	tx := w.e.Begin()
	tr.end(sp)
	sp = tr.begin("object.modify", seq, root)
	c.undelivered.Add(1)
	err := w.e.Modify(tx, w.stocks[stock], map[string]datum.Value{
		"price": datum.Float(price), "seq": datum.Int(int64(seq))})
	tr.end(sp)
	if err != nil {
		tx.Abort()
		tr.end(root)
		return err
	}
	sp = tr.begin("txn.commit", seq, root)
	err = tx.Commit()
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}
	c.commits++
	c.last[stock] = lastWrite{price: price, seq: int64(seq), issue: issue, ret: nowNs()}
	return nil
}

// drain waits until every committed update has been displayed and
// every executed trade has been shown.
func (w *saaWorkload) drain(commits int64) {
	drain(w.e, func() bool {
		return w.displayed.Load() >= commits && w.displayedTrades.Load() >= w.trades.Load()
	})
}

func (w *saaWorkload) commits() int64 {
	var n int64
	for _, c := range w.clients {
		n += c.commits
	}
	return n
}

func (w *saaWorkload) run(cfg runCfg) (*outcome, error) {
	out := newOutcome()
	var open []paced
	var closed []func() (int64, error)
	for _, c := range w.clients {
		c := c
		open = append(open, paced{perSec: saaOpenRate / loadGoroutines, op: func(due int64) error {
			c.awaitRoom(saaQueueBound)
			return w.update(c, due)
		}})
		closed = append(closed, func() (int64, error) {
			c.awaitRoom(saaQueueBound)
			at := nowNs()
			return at, w.update(c, at)
		})
	}
	tp := runTwoPhase(cfg, w.e, &w.fire, open, closed)
	commits := w.commits()
	w.drain(commits)

	tp.userMetrics(out)
	out.attempted = tp.attempted() + commits + w.trades.Load()
	out.failed = tp.failed() + (commits - w.displayed.Load()) + (w.trades.Load() - w.displayedTrades.Load())
	if err, _ := w.handlerErr.Load().(error); err != nil {
		out.problemf("the trader failed: %v", err)
	}
	out.asyncErrors(w.e)
	w.check(out, commits)

	if cfg.trace {
		res := tp.closed
		commits := completed(res.ops, res.start, res.end)
		traceMetrics(out, res, tp.before, tp.after, commits)
		// No bench.gen_lag_p99_us here: every update leaves 65 firing
		// goroutines in the run queues ahead of the clients' next
		// wake-up, so their lateness (p50 0.5 ms at this rate) is the
		// engine's doing and is part of the latencies, not a generator
		// fault to refuse a run for.
		// Everything the process wrote during the phase: WAL appends
		// plus checkpoint files.
		out.vals["disk_bytes_per_commit"] = ratio(float64(res.wcharEnd-res.wcharStart), commits)
		if err := w.recover(out, cfg.recoveryTail); err != nil {
			return nil, err
		}
		runProbes(out, w.e, probeSet{
			dir:        cfg.dir,
			walPayload: int(out.vals["wal.bytes_per_commit"]),
			indexQuery: "select s.symbol as sym, s.price as p from Stock s where s = event.oid",
			queryArgs:  map[string]datum.Value{"oid": datum.ID(w.stocks[0])},
			eventArgs:  stockModifyBindings(w.stocks[0]),
		})
	}
	return out, nil
}

// check holds the outputs against what the clients saw acknowledged.
func (w *saaWorkload) check(out *outcome, commits int64) {
	if got := w.displayed.Load(); got != commits {
		out.problemf("display_quote ran %d times for %d committed updates", got, commits)
	}
	if got, want := w.displayedTrades.Load(), w.trades.Load(); got != want {
		out.problemf("display_trade ran %d times for %d executed trades", got, want)
	}
	w.checkState(out)
}

// checkState reads every Stock and Holding back. A stock must hold the
// last acknowledged write; when the two clients' last writes to it
// overlapped in time either may have committed last.
func (w *saaWorkload) checkState(out *outcome) {
	tx := w.e.Begin()
	defer tx.Commit()
	for i, oid := range w.stocks {
		rec, err := w.e.Get(tx, oid)
		if err != nil {
			out.problemf("stock %s unreadable: %v", w.symbols[i], err)
			continue
		}
		a, b := w.clients[0].last[i], w.clients[1].last[i]
		got := rec.Attrs["seq"].AsInt()
		okA := got == a.seq && !(a.ret < b.issue)
		okB := got == b.seq && !(b.ret < a.issue)
		if a.seq == b.seq { // neither client wrote it
			okA = got == a.seq
		}
		if !okA && !okB {
			out.problemf("stock %s holds seq %d, last acknowledged were %d and %d", w.symbols[i], got, a.seq, b.seq)
			continue
		}
		want := a.price
		if got == b.seq {
			want = b.price
		}
		if p := rec.Attrs["price"].AsFloat(); p != want {
			out.problemf("stock %s holds price %v, acknowledged %v", w.symbols[i], p, want)
		}
	}
	w.traderMu.Lock()
	defer w.traderMu.Unlock()
	for key, oid := range w.holdingOID {
		rec, err := w.e.Get(tx, oid)
		if err != nil {
			out.problemf("holding %s unreadable: %v", key, err)
			continue
		}
		if got, want := rec.Attrs["qty"].AsInt(), w.holdingQty[key]+w.traded[key]; got != want {
			out.problemf("holding %s has qty %d, initial plus executed trades is %d", key, got, want)
		}
	}
}

// recover measures recovery_s and checks durability: it forces a
// checkpoint, commits a fixed tail of updates with checkpointing off,
// closes without a checkpoint, and times reopening the directory. Every
// acknowledged commit must then be readable with its last value.
func (w *saaWorkload) recover(out *outcome, tail int) error {
	if _, err := w.e.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint before the recovery tail: %w", err)
	}
	w.close()
	if err := w.open(0); err != nil {
		return fmt.Errorf("reopen for the recovery tail: %w", err)
	}
	c := w.clients[0]
	for i := 0; i < tail; i++ {
		c.awaitRoom(saaQueueBound)
		if err := w.update(c, nowNs()); err != nil {
			return fmt.Errorf("recovery tail update %d: %w", i, err)
		}
	}
	w.drain(w.commits())
	w.close()
	t := time.Now()
	if err := w.open(0); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	out.vals["recovery_s"] = time.Since(t).Seconds()
	w.checkState(out)
	return nil
}
