package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/rule"
	"repro/internal/txn"
)

// analytic_query is the passive side: one client runs a fixed cycle of
// ten queries — six indexed, two full-extent aggregates, one
// unselective scan, one three-way hash join — against an in-memory
// engine, so plan, query, btree and the storage scans do most of the
// work. A writer runs beside it on a fixed schedule, moving quantity
// between two holdings per transaction, so a read-path gain that costs
// MVCC writers or version collection shows; each of its modifies fires
// one audit rule, which is where this workload's event-to-action
// latency comes from.
const (
	analyticStocks   = 512
	analyticSectors  = 16
	analyticOwners   = 5000
	analyticHoldings = 10_000
	analyticWriteHz  = 200 // writer transactions per second, fixed
	analyticRing     = 1 << 12
)

// analyticQueries is the cycle. ops_per_s is dominated by the heavy
// four, op_p50_us by the indexed path, the tail by the join.
var analyticQueries = []struct{ class, src string }{
	{"index", "select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner"},
	{"index", "select s.symbol as sym, s.price as p from Stock s where s.price >= event.lo and s.price < event.hi order by s.price limit 10"},
	{"agg", "select count(*) as n, sum(h.qty) as total, min(h.qty) as lo, max(h.qty) as hi from Holding h"},
	{"index", "select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner"},
	{"index", "select s.symbol as sym, s.price as p from Stock s where s.price >= event.lo and s.price < event.hi order by s.price limit 10"},
	{"scan", "select h.qty from Holding h where h.qty >= event.min"},
	{"index", "select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner"},
	{"index", "select s.symbol as sym, s.price as p from Stock s where s.price >= event.lo and s.price < event.hi order by s.price limit 10"},
	{"agg", "select count(*) as n, sum(h.qty) as total from Holding h where h.qty >= 0"},
	{"join3", "select h.qty, s.price, c.boost from Holding h, Stock s, Sector c where h.symbol = s.symbol and s.sector = c.name"},
}

func analyticClasses() []object.Class {
	return []object.Class{
		{Name: "Stock", Attrs: []object.AttrDef{
			{Name: "symbol", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "sector", Kind: datum.KindString, Required: true},
			{Name: "price", Kind: datum.KindFloat, Indexed: true},
		}},
		{Name: "Holding", Attrs: []object.AttrDef{
			{Name: "owner", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "symbol", Kind: datum.KindString, Required: true},
			{Name: "qty", Kind: datum.KindInt, Required: true},
			{Name: "seq", Kind: datum.KindInt},
		}},
		{Name: "Sector", Attrs: []object.AttrDef{
			{Name: "name", Kind: datum.KindString, Required: true},
			{Name: "boost", Kind: datum.KindInt, Required: true},
		}},
	}
}

// analyticGen draws the query arguments and the writer's transfers.
type analyticGen struct{ rng *rand.Rand }

func newAnalyticGen(seed int64, stream int) *analyticGen {
	return &analyticGen{rng: rand.New(rand.NewSource(seed*15485863 + int64(stream)))}
}

func (g *analyticGen) queryArgs() map[string]datum.Value {
	lo := float64(10 + g.rng.Intn(80))
	return map[string]datum.Value{
		"owner": datum.Str(fmt.Sprintf("acct%04d", g.rng.Intn(analyticOwners))),
		"lo":    datum.Float(lo),
		"hi":    datum.Float(lo + 5),
		"min":   datum.Int(int64(10 + g.rng.Intn(10))),
	}
}

func (g *analyticGen) transfer() (from, to int, qty int64) {
	from = g.rng.Intn(analyticHoldings)
	to = (from + 1 + g.rng.Intn(analyticHoldings-1)) % analyticHoldings
	return from, to, int64(1 + g.rng.Intn(5))
}

type analyticWorkload struct {
	e        *core.Engine
	holdings []datum.OID
	totalQty int64

	reader *analyticGen
	writer *analyticGen
	wtrack *tracker
	cycle  int
	parsed []*query.Query

	fire     *recorder
	audited  atomic.Int64
	modifies atomic.Int64
	rows     atomic.Int64
}

func (w *analyticWorkload) setup(cfg runCfg) error {
	e, err := core.Open(core.Options{})
	if err != nil {
		return err
	}
	w.e = e
	w.reader, w.writer = newAnalyticGen(cfg.seed, 0), newAnalyticGen(cfg.seed, 1)
	w.wtrack = newTracker(1, analyticRing)
	tx := e.Begin()
	for _, cls := range analyticClasses() {
		if err := e.DefineClass(tx, cls); err != nil {
			tx.Abort()
			return err
		}
	}
	for i := 0; i < analyticSectors; i++ {
		if _, err := e.Create(tx, "Sector", map[string]datum.Value{
			"name": datum.Str(fmt.Sprintf("sector%02d", i)), "boost": datum.Int(int64(i))}); err != nil {
			tx.Abort()
			return err
		}
	}
	symbols := make([]string, analyticStocks)
	for i := range symbols {
		symbols[i] = fmt.Sprintf("S%04d", i)
		if _, err := e.Create(tx, "Stock", map[string]datum.Value{
			"symbol": datum.Str(symbols[i]),
			"sector": datum.Str(fmt.Sprintf("sector%02d", i%analyticSectors)),
			"price":  datum.Float(float64(10 + i%90)),
		}); err != nil {
			tx.Abort()
			return err
		}
	}
	w.holdings = make([]datum.OID, analyticHoldings)
	for i := range w.holdings {
		qty := int64(1000 + i%100)
		oid, err := e.Create(tx, "Holding", map[string]datum.Value{
			"owner":  datum.Str(fmt.Sprintf("acct%04d", i%analyticOwners)),
			"symbol": datum.Str(symbols[i%analyticStocks]),
			"qty":    datum.Int(qty),
		})
		if err != nil {
			tx.Abort()
			return err
		}
		w.holdings[i] = oid
		w.totalQty += qty
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for _, q := range analyticQueries {
		w.parsed = append(w.parsed, query.MustParse(q.src))
	}
	e.RegisterCall("audit", w.audit)
	_, err = e.CreateRule(rule.Def{
		Name: "transfer-audit", Event: "modify(Holding)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "audit"}},
		EC:     "separate", CA: "immediate",
	})
	return err
}

func (w *analyticWorkload) close() {
	if w.e != nil {
		w.e.Close()
	}
}

// audit is the application callback of the transfer-audit rule. Only
// the debit half of a transfer carries the sequence number.
func (w *analyticWorkload) audit(_ *txn.Txn, args map[string]datum.Value) error {
	w.audited.Add(1)
	if v, ok := args["new_seq"]; ok {
		w.wtrack.delivered("app.audit", uint64(v.AsInt()), w.fire)
	}
	return nil
}

// queryOp runs the next query of the cycle; aggregates must see the
// invariant total however the writer's transfers interleave.
func (w *analyticWorkload) queryOp() (int64, error) {
	i := w.cycle % len(analyticQueries)
	w.cycle++
	args := w.reader.queryArgs()
	issue := nowNs()
	sp := tr.begin("query.execute_"+analyticQueries[i].class, uint64(w.cycle), -1)
	tx := w.e.Begin()
	res, err := w.e.Query(tx, analyticQueries[i].src, args)
	tx.Commit()
	tr.end(sp)
	if err != nil {
		return issue, err
	}
	w.rows.Add(int64(len(res.Rows)))
	if analyticQueries[i].class == "agg" {
		for c, name := range res.Columns {
			if name == "total" && res.Rows[0][c].AsInt() != w.totalQty {
				return issue, fmt.Errorf("aggregate saw sum(h.qty) = %d, invariant is %d", res.Rows[0][c].AsInt(), w.totalQty)
			}
		}
	}
	return issue, nil
}

// transferOp is the writer: one transaction moving quantity between
// two holdings.
func (w *analyticWorkload) transferOp(due int64) error {
	from, to, qty := w.writer.transfer()
	seq, root := w.wtrack.issue(due)
	defer tr.end(root)
	sp := tr.begin("txn.begin", seq, root)
	tx := w.e.Begin()
	tr.end(sp)
	move := func(oid datum.OID, delta int64, attrs map[string]datum.Value) error {
		sp := tr.begin("object.get_for_update", seq, root)
		rec, err := w.e.GetForUpdate(tx, oid)
		tr.end(sp)
		if err != nil {
			return err
		}
		attrs["qty"] = datum.Int(rec.Attrs["qty"].AsInt() + delta)
		sp = tr.begin("object.modify", seq, root)
		err = w.e.Modify(tx, oid, attrs)
		tr.end(sp)
		return err
	}
	if err := move(w.holdings[from], -qty, map[string]datum.Value{"seq": datum.Int(int64(seq))}); err != nil {
		tx.Abort()
		return err
	}
	if err := move(w.holdings[to], qty, map[string]datum.Value{}); err != nil {
		tx.Abort()
		return err
	}
	sp = tr.begin("txn.commit", seq, root)
	err := tx.Commit()
	tr.end(sp)
	if err == nil {
		w.modifies.Add(2)
	}
	return err
}

// checkOracle holds every query of the cycle against the tree-walk
// evaluator on the same snapshot, before any timing.
func (w *analyticWorkload) checkOracle(out *outcome) {
	tx := w.e.Begin()
	defer tx.Commit()
	args := newAnalyticGen(1, 2).queryArgs()
	for i, q := range w.parsed {
		reader := w.e.Objects.SnapshotReader(tx)
		want, err := query.Eval(q, reader, args)
		reader.Close()
		if err != nil {
			out.problemf("tree-walk of query %d: %v", i, err)
			continue
		}
		got, err := w.e.Query(tx, analyticQueries[i].src, args)
		if err != nil {
			out.problemf("query %d: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(want, got) {
			out.problemf("query %d (%s) differs from the tree-walk: %d rows against %d", i, analyticQueries[i].class, len(got.Rows), len(want.Rows))
		}
	}
}

func (w *analyticWorkload) run(cfg runCfg) (*outcome, error) {
	out := newOutcome()
	w.checkOracle(out)
	warm, dur := cfg.phases(cfg.seconds)
	w.fire = newRecorder(nowNs(), 1<<16)
	var before, after engineSnap
	var rowsBefore, rowsAfter, modsBefore, modsAfter int64
	seg := segment{warm: warm, dur: dur, windows: windowsFor(dur),
		closed: []func() (int64, error){w.queryOp},
		paced:  []paced{{perSec: analyticWriteHz, op: w.transferOp}}}
	if cfg.trace {
		seg.atStart = func() {
			before, rowsBefore, modsBefore = snapEngine(w.e), w.rows.Load(), w.modifies.Load()
			tr.on.Store(true)
		}
		seg.atEnd = func() {
			tr.on.Store(false)
			after, rowsAfter, modsAfter = snapEngine(w.e), w.rows.Load(), w.modifies.Load()
		}
	}
	res := seg.run()
	// The queries are the user operations; the writer is background
	// load, so its recorder stays out of the operation metrics.
	writes := res.ops[1]
	res.ops = res.ops[:1]
	drain(w.e, func() bool { return w.audited.Load() >= w.modifies.Load() })

	userMetrics(out, res, []*recorder{w.fire})
	out.attempted = res.st.attempted.Load() + w.modifies.Load()
	out.failed = res.st.failed.Load() + (w.modifies.Load() - w.audited.Load())
	if err := res.st.firstErr; err != nil {
		out.problemf("an operation failed: %v", err)
	}
	out.asyncErrors(w.e)
	if got, want := w.audited.Load(), w.modifies.Load(); got != want {
		out.problemf("the audit callback ran %d times for %d committed modifies", got, want)
	}
	if len(writes.s) == 0 {
		out.problemf("the writer committed nothing")
	}

	if cfg.trace {
		traceMetrics(out, res, before, after, float64(modsAfter-modsBefore)/2)
		gets := float64(after.st.Store.Gets - before.st.Store.Gets)
		out.vals["storage.gets_per_row_returned"] = ratio(gets, float64(rowsAfter-rowsBefore))
		runProbes(out, w.e, probeSet{
			dir:        cfg.dir,
			indexQuery: analyticQueries[0].src,
			scanQuery:  analyticQueries[5].src,
			join3Query: analyticQueries[9].src,
			aggQuery:   analyticQueries[2].src,
			queryArgs:  newAnalyticGen(1, 2).queryArgs(),
			eventArgs: map[string]datum.Value{"oid": datum.ID(w.holdings[0]), "class": datum.Str("Holding"),
				"new_qty": datum.Int(1), "old_qty": datum.Int(2)},
		})
	}
	return out, nil
}
