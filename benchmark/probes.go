package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/btree"
	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/ipc"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rule"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Layer probes: after the measured phase, timed direct calls into one
// layer's public functions, on the workload's live engine and data.
// wal, btree, cep and ipc are probed on scratch instances, because the
// live ones must not be fed made-up records. A probe gives a layer's
// cost in isolation, which the counters (how often) and the spans (how
// long, everything below included) cannot.

const (
	probeCalls = 10_000
	// heavyCalls bounds the probes whose single call takes milliseconds
	// (full scans, joins, aggregates, the whole rule set's conditions).
	heavyCalls = 20
	probeClass = "BenchProbe"
	probeEvent = "BenchProbeEvent"
	probeRule  = "bench-probe-noop"
)

// probeSet is what a workload tells the probes about itself.
type probeSet struct {
	dir        string // scratch directory
	walPayload int    // the workload's redo bytes per commit; 0 skips the WAL probe
	// One query per class of the planner's work; empty skips it.
	indexQuery, scanQuery, join3Query, aggQuery string
	queryArgs                                   map[string]datum.Value
	// eventArgs are the bindings the workload's rules are evaluated
	// under; nil skips the condition probe.
	eventArgs map[string]datum.Value
	// ipcMessage is a request typical of the workload; nil skips the
	// codec probe.
	ipcMessage *ipc.Message
}

// perCall times n calls of fn and returns the mean in ns.
func perCall(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(n), nil
}

func runProbes(out *outcome, e *core.Engine, ps probeSet) {
	probes := []struct {
		metric string
		run    func() (float64, error)
	}{
		{"txn.begin_commit_ns", func() (float64, error) {
			return perCall(probeCalls, func(int) error { return e.Begin().Commit() })
		}},
		{"lock.acquire_release_ns", func() (float64, error) { return probeLock(e) }},
		{"object.modify_ns", func() (float64, error) { return probeModify(e) }},
		{"storage.get_ns", func() (float64, error) { return probeGet(e) }},
		{"storage.put_commit_ns", func() (float64, error) { return probePutCommit(e) }},
		{"wal.append_ns", func() (float64, error) { return probeWAL(ps) }},
		{"event.signal_ext_ns", func() (float64, error) { return probeSignal(e) }},
		{"cep.offer_ns", probeCEP},
		{"cond.evaluate_ns", func() (float64, error) { return probeCond(e, ps) }},
		{"rule.fire_ns", func() (float64, error) { return probeFire(e) }},
		{"ipc.codec_ns", func() (float64, error) { return probeCodec(ps) }},
		{"btree.insert_ns", probeBtreeInsert},
		{"btree.scan_ns_per_key", probeBtreeScan},
	}
	if err := probeFixture(e); err != nil {
		out.problemf("probe fixture: %v", err)
		return
	}
	for _, p := range probes {
		v, err := p.run()
		if err != nil {
			out.problemf("probe %s: %v", p.metric, err)
			continue
		}
		out.vals[p.metric] = v
	}
	probeQueries(out, e, ps)
}

// probeFixture creates what the live-engine probes act on: one object
// of a class no rule subscribes to, an event nobody listens for, and a
// rule whose action does nothing.
func probeFixture(e *core.Engine) error {
	tx := e.Begin()
	err := e.DefineClass(tx, object.Class{Name: probeClass,
		Attrs: []object.AttrDef{{Name: "x", Kind: datum.KindInt}}})
	if err != nil {
		tx.Abort()
		return err
	}
	if _, err := e.Create(tx, probeClass, map[string]datum.Value{"x": datum.Int(0)}); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if err := e.DefineEvent(probeEvent, "x"); err != nil {
		return err
	}
	e.RegisterCall(probeRule, func(*txn.Txn, map[string]datum.Value) error { return nil })
	_, err = e.CreateRule(rule.Def{Name: probeRule, Event: "external(" + probeEvent + "Fire)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: probeRule}}, Disabled: true})
	return err
}

func probeObject(e *core.Engine) (datum.OID, error) {
	tx := e.Begin()
	defer tx.Commit()
	res, err := e.Query(tx, "select p from "+probeClass+" p", nil)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 {
		return 0, fmt.Errorf("%d probe objects", len(res.Rows))
	}
	return res.Rows[0][0].AsOID(), nil
}

func probeLock(e *core.Engine) (float64, error) {
	tx := e.Begin()
	defer tx.Commit()
	item := lock.Item("bench/probe")
	return perCall(probeCalls, func(int) error {
		err := e.Locks.Acquire(tx.ID(), item, lock.Exclusive)
		e.Locks.ReleaseAll(tx.ID())
		return err
	})
}

func probeModify(e *core.Engine) (float64, error) {
	oid, err := probeObject(e)
	if err != nil {
		return 0, err
	}
	tx := e.Begin()
	defer tx.Abort()
	return perCall(probeCalls, func(i int) error {
		return e.Modify(tx, oid, map[string]datum.Value{"x": datum.Int(int64(i))})
	})
}

func probeGet(e *core.Engine) (float64, error) {
	oid, err := probeObject(e)
	if err != nil {
		return 0, err
	}
	return perCall(probeCalls, func(int) error {
		if _, ok := e.Store.Get(0, oid); !ok {
			return fmt.Errorf("probe object %v not found", oid)
		}
		return nil
	})
}

func probePutCommit(e *core.Engine) (float64, error) {
	oid, err := probeObject(e)
	if err != nil {
		return 0, err
	}
	return perCall(probeCalls, func(i int) error {
		tx := e.Begin()
		e.Store.Put(tx.ID(), storage.Record{OID: oid, Class: probeClass,
			Attrs: map[string]datum.Value{"x": datum.Int(int64(i))}})
		return tx.Commit()
	})
}

func probeWAL(ps probeSet) (float64, error) {
	if ps.walPayload == 0 {
		return 0, nil
	}
	path := filepath.Join(ps.dir, "probe.wal")
	l, err := wal.Open(path, wal.Options{NoSync: true})
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	payload := make([]byte, ps.walPayload)
	v, err := perCall(probeCalls, func(int) error {
		_, err := l.Append(payload)
		return err
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return v, err
}

func probeSignal(e *core.Engine) (float64, error) {
	args := map[string]datum.Value{"x": datum.Int(1)}
	return perCall(probeCalls, func(int) error {
		_, err := e.Detectors.SignalExternal(probeEvent, 0, args)
		return err
	})
}

func probeCEP() (float64, error) {
	t := cep.New(cep.Config{Kind: cep.KAggregate, Parts: 1, Window: time.Second, Count: 8,
		CorrelAttr: "ticker", CorrelVar: "t"}, 0)
	tickers := make([]map[string]datum.Value, 256)
	for i := range tickers {
		tickers[i] = map[string]datum.Value{"ticker": datum.Str(fmt.Sprintf("T%04d", i))}
	}
	base := time.Now()
	return perCall(probeCalls, func(i int) error {
		t.Offer(cep.Occurrence{Time: base.Add(time.Duration(i) * time.Microsecond), Bindings: tickers[i%len(tickers)]})
		return nil
	})
}

func probeCond(e *core.Engine, ps probeSet) (float64, error) {
	if ps.eventArgs == nil {
		return 0, nil
	}
	var ids []uint64
	for _, r := range e.Rules.Rules() {
		if r.Name != probeRule {
			ids = append(ids, uint64(r.OID))
		}
	}
	tx := e.Begin()
	defer tx.Commit()
	reader := e.Objects.SnapshotReader(tx)
	defer reader.Close()
	return perCall(heavyCalls*10, func(int) error {
		_, err := e.Conditions.Evaluate(reader, ps.eventArgs, true, ids)
		return err
	})
}

func probeFire(e *core.Engine) (float64, error) {
	tx := e.Begin()
	defer tx.Commit()
	args := map[string]datum.Value{"x": datum.Int(1)}
	return perCall(probeCalls, func(int) error { return e.FireRule(tx, probeRule, args) })
}

// probeCodec writes and reads one message over an in-memory pipe.
func probeCodec(ps probeSet) (float64, error) {
	if ps.ipcMessage == nil {
		return 0, nil
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	readErr := make(chan error, 1)
	go func() {
		for i := 0; i < probeCalls; i++ {
			if _, err := ipc.Read(b); err != nil {
				readErr <- err
				return
			}
		}
		readErr <- nil
	}()
	start := time.Now()
	for i := 0; i < probeCalls; i++ {
		if err := ipc.Write(a, ps.ipcMessage); err != nil {
			return 0, err
		}
	}
	if err := <-readErr; err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / probeCalls, nil
}

func probeKey(i int) string { return fmt.Sprintf("k%08d", i*7919%probeCalls) }

func probeBtreeInsert() (float64, error) {
	t := btree.New()
	return perCall(probeCalls, func(i int) error {
		t.Insert(probeKey(i), datum.OID(i))
		return nil
	})
}

func probeBtreeScan() (float64, error) {
	t := btree.New()
	for i := 0; i < probeCalls; i++ {
		t.Insert(probeKey(i), datum.OID(i))
	}
	const scans = 20
	keys := 0
	start := time.Now()
	for s := 0; s < scans; s++ {
		t.Scan(btree.Open(), btree.Open(), func(string, datum.OID) bool { keys++; return true })
	}
	return float64(time.Since(start)) / float64(keys), nil
}

// probeQueries times the planner on one query per class of its work.
func probeQueries(out *outcome, e *core.Engine, ps probeSet) {
	tx := e.Begin()
	defer tx.Commit()
	reader := e.Objects.SnapshotReader(tx)
	defer reader.Close()
	execute := func(src string, calls int) (perCallNs float64, rows int) {
		if src == "" {
			return 0, 0
		}
		q, err := query.Parse(src)
		if err != nil {
			out.problemf("probe query %q: %v", src, err)
			return 0, 0
		}
		p := plan.Build(q, reader, ps.queryArgs, plan.Options{})
		v, err := perCall(calls, func(int) error {
			res, err := p.Execute(reader, ps.queryArgs)
			if err == nil {
				rows = len(res.Rows)
			}
			return err
		})
		if err != nil {
			out.problemf("probe query %q: %v", src, err)
		}
		return v, rows
	}
	if ps.indexQuery != "" {
		v, _ := perCall(probeCalls, func(int) error {
			_, err := query.Parse(ps.indexQuery)
			return err
		})
		out.vals["query.parse_ns"] = v
		q := query.MustParse(ps.indexQuery)
		v, _ = perCall(probeCalls, func(int) error {
			plan.Build(q, reader, ps.queryArgs, plan.Options{})
			return nil
		})
		out.vals["plan.build_ns"] = v
		v, _ = execute(ps.indexQuery, probeCalls)
		out.vals["plan.execute_index_us"] = v / 1e3
	}
	if v, rows := execute(ps.scanQuery, heavyCalls); rows > 0 {
		out.vals["plan.execute_scan_ns_per_row"] = v / float64(rows)
	}
	v, _ := execute(ps.join3Query, heavyCalls)
	out.vals["plan.execute_join3_ms"] = v / 1e6
	v, _ = execute(ps.aggQuery, heavyCalls)
	out.vals["plan.execute_agg_ms"] = v / 1e6
}
