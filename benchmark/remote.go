package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/ipc"
	"repro/internal/saa"
	"repro/internal/server"
)

// remote_oltp is the §4.1 four-module interface over the wire: two
// client connections over a unix socket to a server on an in-memory
// engine, issuing a mix of reads, update transactions, indexed point
// queries and event signals. ipc, server and client do most of the
// work; there is one rule and no WAL. It is the workload a network
// front door must move and a WAL or planner change must not.
const (
	remoteStocks     = 100_000
	remoteBatch      = 25_000
	remoteZipfS      = 1.1
	remoteQueueBound = 256
	remoteRing       = 1 << 12
	remoteSampledGet = 2000 // reads checked against acknowledged writes after the run
	remoteEvent      = "Tick"
	remotePointQuery = "select s.price as p from Stock s where s.symbol = event.sym"

	// Operation mix, by weight out of 100.
	remoteGetWeight    = 50
	remoteUpdateWeight = 25 // begin + modify + commit: three round trips
	remoteQueryWeight  = 15
	// the remaining 10 signal an event
)

type remoteOp int

const (
	remoteGet remoteOp = iota
	remoteUpdate
	remoteQuery
	remoteSignal
)

// remoteGen is one connection's input stream.
type remoteGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newRemoteGen(seed int64, conn int) *remoteGen {
	rng := rand.New(rand.NewSource(seed*104729 + int64(conn)))
	return &remoteGen{rng: rng, zipf: rand.NewZipf(rng, remoteZipfS, 1, remoteStocks-1)}
}

// next draws the operation, the stock it acts on (uniform for reads,
// Zipf-skewed for updates) and a price.
func (g *remoteGen) next() (op remoteOp, stock int, price float64) {
	price = 40 + float64(g.rng.Intn(2000))/100
	switch w := g.rng.Intn(100); {
	case w < remoteGetWeight:
		return remoteGet, g.rng.Intn(remoteStocks), price
	case w < remoteGetWeight+remoteUpdateWeight:
		return remoteUpdate, int(g.zipf.Uint64()), price
	case w < remoteGetWeight+remoteUpdateWeight+remoteQueryWeight:
		return remoteQuery, g.rng.Intn(remoteStocks), price
	default:
		return remoteSignal, g.rng.Intn(remoteStocks), price
	}
}

type remoteConn struct {
	*tracker
	c       *client.Client
	read    *client.Txn // session-long transaction the reads run in
	gen     *remoteGen
	last    map[int]lastWrite // acknowledged writes, by stock
	commits atomic.Int64
}

type remoteWorkload struct {
	e       *core.Engine
	srv     *server.Server
	served  chan error
	stocks  []datum.OID
	conns   [loadGoroutines]*remoteConn
	fire    *recorder
	fired   atomic.Int64
	symbols []string
}

func remoteSymbol(i int) string { return fmt.Sprintf("S%06d", i) }

func (w *remoteWorkload) setup(cfg runCfg) error {
	e, err := core.Open(core.Options{})
	if err != nil {
		return err
	}
	w.e = e
	tx := e.Begin()
	for _, cls := range saaClasses() {
		if err := e.DefineClass(tx, cls); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	w.stocks = make([]datum.OID, remoteStocks)
	w.symbols = make([]string, remoteStocks)
	for base := 0; base < remoteStocks; base += remoteBatch {
		bt := e.Begin()
		for i := base; i < base+remoteBatch; i++ {
			w.symbols[i] = remoteSymbol(i)
			oid, err := e.Create(bt, saa.ClassStock, map[string]datum.Value{
				"symbol": datum.Str(w.symbols[i]), "price": datum.Float(50), "seq": datum.Int(-1)})
			if err != nil {
				bt.Abort()
				return err
			}
			w.stocks[i] = oid
		}
		if err := bt.Commit(); err != nil {
			return err
		}
	}

	sock := filepath.Join(cfg.dir, "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	w.srv = server.New(e)
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	for i := range w.conns {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			return err
		}
		c := client.NewClient(conn)
		w.conns[i] = &remoteConn{tracker: newTracker(i, remoteRing), c: c,
			gen: newRemoteGen(cfg.seed, i), last: map[int]lastWrite{}}
		if w.conns[i].read, err = c.Begin(); err != nil {
			return err
		}
	}
	c0 := w.conns[0].c
	if err := c0.DefineEvent(remoteEvent, "sym"); err != nil {
		return err
	}
	// The Display program is connection 0: it serves display_quote, so
	// the rule's action crosses the wire back to a load connection.
	if err := c0.Serve(map[string]client.Handler{saa.OpDisplayQuote: w.displayQuote}); err != nil {
		return err
	}
	display := saa.DisplayQuoteRule("display-quote")
	display.Action[0].Args["seq"] = "event.new_seq"
	return c0.CreateRule(display)
}

func (w *remoteWorkload) close() {
	for _, c := range w.conns {
		if c != nil {
			c.c.Close()
		}
	}
	if w.srv != nil {
		w.srv.Close()
		<-w.served
	}
	if w.e != nil {
		w.e.Close()
	}
}

func (w *remoteWorkload) displayQuote(args map[string]datum.Value) (map[string]datum.Value, error) {
	seq := uint64(args["seq"].AsInt())
	c := w.conns[seqClient(seq)]
	c.delivered("app.display_quote", seq, w.fire)
	w.fired.Add(1)
	c.undelivered.Add(-1)
	return nil, nil
}

// call wraps one round trip in a span.
func call(name string, seq uint64, root int32, fn func() error) error {
	sp := tr.begin(name, seq, root)
	err := fn()
	tr.end(sp)
	return err
}

func (w *remoteWorkload) op(c *remoteConn) (int64, error) {
	c.awaitRoom(remoteQueueBound)
	kind, stock, price := c.gen.next()
	issue := nowNs()
	seq, root := c.issue(issue)
	defer tr.end(root)
	switch kind {
	case remoteGet:
		var obj client.Object
		err := call("client.get", seq, root, func() (err error) {
			obj, err = c.c.Get(c.read, w.stocks[stock])
			return err
		})
		if err != nil {
			return issue, err
		}
		if got := obj.Attrs["symbol"].AsString(); obj.Class != saa.ClassStock || got != w.symbols[stock] {
			return issue, fmt.Errorf("get of %s returned %s %q", w.symbols[stock], obj.Class, got)
		}
	case remoteUpdate:
		var tx *client.Txn
		err := call("client.begin", seq, root, func() (err error) {
			tx, err = c.c.Begin()
			return err
		})
		if err != nil {
			return issue, err
		}
		c.undelivered.Add(1)
		err = call("client.modify", seq, root, func() error {
			return c.c.Modify(tx, w.stocks[stock], map[string]datum.Value{
				"price": datum.Float(price), "seq": datum.Int(int64(seq))})
		})
		if err != nil {
			tx.Abort()
			return issue, err
		}
		if err := call("client.commit", seq, root, tx.Commit); err != nil {
			return issue, err
		}
		c.commits.Add(1)
		c.last[stock] = lastWrite{price: price, seq: int64(seq), issue: issue, ret: nowNs()}
	case remoteQuery:
		var res *client.Result
		err := call("client.query", seq, root, func() (err error) {
			res, err = c.c.Query(c.read, remotePointQuery, map[string]datum.Value{"sym": datum.Str(w.symbols[stock])})
			return err
		})
		if err != nil {
			return issue, err
		}
		if len(res.Rows) != 1 {
			return issue, fmt.Errorf("point query for %s returned %d rows", w.symbols[stock], len(res.Rows))
		}
	case remoteSignal:
		err := call("client.signal", seq, root, func() error {
			return c.c.SignalEvent(nil, remoteEvent, map[string]datum.Value{"sym": datum.Str(w.symbols[stock])})
		})
		if err != nil {
			return issue, err
		}
	}
	return issue, nil
}

func (w *remoteWorkload) commits() int64 {
	return w.conns[0].commits.Load() + w.conns[1].commits.Load()
}

func (w *remoteWorkload) run(cfg runCfg) (*outcome, error) {
	out := newOutcome()
	warm, dur := cfg.phases(cfg.seconds)
	w.fire = newRecorder(nowNs(), 1<<18)
	var before, after engineSnap
	var commitsBefore, commitsAfter int64
	seg := segment{warm: warm, dur: dur, windows: windowsFor(dur)}
	for _, c := range w.conns {
		c := c
		seg.closed = append(seg.closed, func() (int64, error) { return w.op(c) })
	}
	if cfg.trace {
		seg.atStart = func() { before, commitsBefore = snapEngine(w.e), w.commits(); tr.on.Store(true) }
		seg.atEnd = func() { tr.on.Store(false); after, commitsAfter = snapEngine(w.e), w.commits() }
	}
	res := seg.run()
	commits := w.commits()
	drain(w.e, func() bool { return w.fired.Load() >= commits })

	userMetrics(out, res, []*recorder{w.fire})
	out.attempted = res.st.attempted.Load() + commits
	out.failed = res.st.failed.Load() + (commits - w.fired.Load())
	if err := res.st.firstErr; err != nil {
		out.problemf("an operation failed: %v", err)
	}
	out.asyncErrors(w.e)
	if got := w.fired.Load(); got != commits {
		out.problemf("display_quote ran %d times for %d committed modifies", got, commits)
	}
	w.checkReads(out, cfg.seed)

	if cfg.trace {
		spans := traceMetrics(out, res, before, after, float64(commitsAfter-commitsBefore))
		rtt := quantile(spanDurationsUs(spans, "client"), 0.5)
		out.vals["client.rtt_p50_us"] = rtt
		out.vals["ipc.transport_p50_us"] = rtt - out.vals["server.request_p50_us"]
		body, err := ipc.EncodeBody(ipc.GetReq{Txn: w.conns[0].read.ID, OID: uint64(w.stocks[0])})
		if err != nil {
			return nil, err
		}
		runProbes(out, w.e, probeSet{
			dir:        cfg.dir,
			indexQuery: remotePointQuery,
			queryArgs:  map[string]datum.Value{"sym": datum.Str(w.symbols[0])},
			eventArgs:  stockModifyBindings(w.stocks[0]),
			ipcMessage: &ipc.Message{ID: 1, Kind: ipc.KindRequest, Op: ipc.OpGet, Body: body},
		})
	}
	return out, nil
}

// checkReads fetches a sample of stocks over the wire — every stock a
// client updated among them first — and holds each against the last
// acknowledged write.
func (w *remoteWorkload) checkReads(out *outcome, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var sample []int
	for _, c := range w.conns {
		for stock := range c.last {
			if len(sample) < remoteSampledGet/2 {
				sample = append(sample, stock)
			}
		}
	}
	for len(sample) < remoteSampledGet {
		sample = append(sample, rng.Intn(remoteStocks))
	}
	initial := lastWrite{price: 50, seq: -1, issue: -1, ret: -1}
	for _, stock := range sample {
		obj, err := w.conns[0].c.Get(w.conns[0].read, w.stocks[stock])
		if err != nil {
			out.problemf("stock %s unreadable: %v", w.symbols[stock], err)
			continue
		}
		a, okA := w.conns[0].last[stock]
		b, okB := w.conns[1].last[stock]
		if !okA {
			a = initial
		}
		if !okB {
			b = initial
		}
		got := obj.Attrs["seq"].AsInt()
		switch {
		case !okA && !okB && got == -1:
		case got == a.seq && okA && !(a.ret < b.issue):
		case got == b.seq && okB && !(b.ret < a.issue):
		default:
			out.problemf("stock %s holds seq %d, last acknowledged were %d and %d", w.symbols[stock], got, a.seq, b.seq)
			continue
		}
		want := a.price
		if got == b.seq && okB {
			want = b.price
		}
		if p := obj.Attrs["price"].AsFloat(); p != want {
			out.problemf("stock %s holds price %v, acknowledged %v", w.symbols[stock], p, want)
		}
	}
}
