package plan

// Stage fan-out. The executor is a staged, materialized pipeline: each
// stage consumes the previous stage's tuple slice and produces the
// next (exec.go). This file is what a stage with more than one worker
// adds — the exchange, the shard-parallel base scan, the partitioned
// hash build, and chunked partial aggregation.
//
//	shard 0 ──scan+filter──┐
//	shard 1 ──scan+filter──┤  bounded      ┌──────────┐
//	   ...                 ├─ channel  ──▶ │ gather / │ ─▶ canonical ─▶ emit
//	shard N ──scan+filter──┘  exchange     │  merge   │     OID sort
//	                                       └──────────┘
//
// Correctness rides entirely on three facts (see the package
// comment): tuple production order is free because the canonical
// slot-wise OID sort restores the oracle's emission order; access
// paths never decide membership, so residual re-filtering in any
// worker is exactly the oracle's check; and every worker of a base
// scan or hash build reads at ONE pinned snapshot LSN, so the union
// of the shard scans equals one serial scan of the same snapshot.
// Aggregation stays bit-identical through query.MergeAggState: exact
// partial merges (count, min/max, integer sums) run chunk-parallel,
// order-sensitive ones (float sums, avg) fall back to one serial
// re-accumulation over the already-sorted tuples.

import (
	"errors"
	"sync"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/query"
)

// ShardScanner is the optional reader fan-out surface for
// shard-parallel extent scans. The object manager's readers implement
// it against the store's OID-hash shards; the executor type-asserts
// it from the query.Reader, and any reader may decline by not
// implementing it — base scans and hash builds then run on one worker.
type ShardScanner interface {
	// ShardCount returns the number of committed-tier shards.
	ShardCount() int
	// PinShards returns the snapshot LSN every shard worker must read
	// at, plus a release for the backing pin. Pinning once for the
	// whole fan-out is the parallel scan's consistency contract: all
	// workers observe one committed state no matter how commits race.
	PinShards() (lsn uint64, release func())
	// ScanClassShard visits the class's live objects held by shard si
	// at the given LSN, in OID order within the shard.
	ScanClassShard(si int, class string, lsn uint64, fn func(datum.OID, map[string]datum.Value) bool) error
}

// maxPar returns the widest step fan-out of the plan (1 when every
// stage runs inline).
func (p *Plan) maxPar() int {
	par := 1
	for _, s := range p.steps {
		par = max(par, s.par)
	}
	return par
}

// --- partitioned hash table ---

// hashTable is the hash-join build side, partitioned by FNV-1a of the
// join key so parallel build workers merge partition-disjoint (and
// probe workers read lock-free — the table is immutable after build).
// One partition degenerates to a plain map.
type hashTable struct {
	mask  uint32
	parts []map[string][]cand
}

func newHashTable(nparts int) *hashTable {
	n := 1
	for n < nparts {
		n <<= 1
	}
	parts := make([]map[string][]cand, n)
	for i := range parts {
		parts[i] = map[string][]cand{}
	}
	return &hashTable{mask: uint32(n - 1), parts: parts}
}

// fnvHash is FNV-1a over the datum key bytes.
func fnvHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (h *hashTable) bucket(key string) map[string][]cand {
	if h.mask == 0 {
		return h.parts[0]
	}
	return h.parts[fnvHash(key)&h.mask]
}

func (h *hashTable) add(key string, c cand) {
	b := h.bucket(key)
	b[key] = append(b[key], c)
}

func (h *hashTable) get(key string) []cand { return h.bucket(key)[key] }

// --- gather instrumentation ---

// gather records worker completion times; the skew between the first
// and last arrival is how long the gather node idled on stragglers.
type gather struct {
	mu          sync.Mutex
	first, last time.Time
	n           int
}

func (g *gather) done() {
	now := time.Now()
	g.mu.Lock()
	if g.n == 0 {
		g.first = now
	}
	g.n++
	g.last = now
	g.mu.Unlock()
}

// observeGather records one fan-out's width and gather skew. Nil-safe
// on p.obs.
func (p *Plan) observeGather(workers int, g *gather) {
	if p.obs == nil {
		return
	}
	p.obs.ObserveN(obs.HPlanFanout, uint64(workers))
	g.mu.Lock()
	skew := g.last.Sub(g.first)
	g.mu.Unlock()
	p.obs.Observe(obs.HPlanGatherWait, skew)
}

// --- bounded-channel exchange ---

// parallelBatch is the tuple batch size shipped per exchange send.
const parallelBatch = 128

// exchange is the bounded channel between stage workers and the
// gather loop. The first error cancels everything: fail closes done,
// workers abort their scans on the next stopped() poll, blocked
// senders fall out of send, and the gather loop keeps draining until
// the closer goroutine (wg.Wait → close(ch)) ends the range — so no
// worker can leak blocked on a full channel.
type exchange struct {
	ch   chan []tuple
	done chan struct{}
	once sync.Once
	err  error
}

func (ex *exchange) fail(err error) {
	ex.once.Do(func() {
		ex.err = err
		close(ex.done)
	})
}

func (ex *exchange) stopped() bool {
	select {
	case <-ex.done:
		return true
	default:
		return false
	}
}

// send ships one batch, abandoning it when the exchange is cancelled.
func (ex *exchange) send(batch []tuple) bool {
	if len(batch) == 0 {
		return !ex.stopped()
	}
	select {
	case ex.ch <- batch:
		return true
	case <-ex.done:
		return false
	}
}

// outbox batches one worker's tuples into exchange sends.
type outbox struct {
	ex    *exchange
	batch []tuple
}

// add queues t, shipping the batch when it fills; false means the
// exchange was cancelled and the worker should stop producing.
func (o *outbox) add(t tuple) bool {
	if o.batch == nil {
		o.batch = make([]tuple, 0, parallelBatch)
	}
	o.batch = append(o.batch, t)
	if len(o.batch) < parallelBatch {
		return true
	}
	ok := o.ex.send(o.batch)
	o.batch = nil
	return ok
}

func (o *outbox) flush() { o.ex.send(o.batch) }

// fanOut runs workers goroutines and gathers what they send on the
// calling goroutine; workers that produce something other than tuples
// (hash partitions, aggregate partials) write to their own slot of a
// caller-owned slice and send nothing — the channel close orders those
// writes before fanOut returns. worker must poll ex.stopped() and
// return promptly once cancelled; the first error wins.
func (p *Plan) fanOut(workers int, worker func(w int, ex *exchange) error) ([]tuple, error) {
	// Two batches of slack per worker: a producer keeps scanning while
	// its previous batch waits for the gather loop.
	ex := &exchange{ch: make(chan []tuple, 2*workers), done: make(chan struct{})}
	g := &gather{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer g.done()
			if err := worker(w, ex); err != nil {
				ex.fail(err)
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(ex.ch)
	}()
	var out []tuple
	for batch := range ex.ch {
		out = append(out, batch...)
	}
	p.observeGather(workers, g)
	if ex.err != nil {
		return nil, ex.err
	}
	return out, nil
}

// --- shard-parallel scans ---

// scanSlice visits the class's objects in worker w's slice of the
// shards (w, w+workers, ...) at lsn, until fn declines or the exchange
// is cancelled.
func scanSlice(ss ShardScanner, ex *exchange, w, workers int, class string, lsn uint64,
	fn func(datum.OID, map[string]datum.Value) bool) error {

	stop := false
	for si := w; si < ss.ShardCount() && !stop && !ex.stopped(); si += workers {
		err := ss.ScanClassShard(si, class, lsn, func(oid datum.OID, attrs map[string]datum.Value) bool {
			stop = ex.stopped() || !fn(oid, attrs)
			return !stop
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelBase is the first stage's shard-parallel specialisation: the
// extent scan fans out over slices of the committed-tier shards, all
// pinned at one snapshot LSN. Each worker applies the step's residuals
// with its own env and ships surviving tuples through the exchange.
func (p *Plan) parallelBase(x *execCtx, s *step, ss ShardScanner, workers int) ([]tuple, error) {
	lsn, release := ss.PinShards()
	defer release()
	return p.fanOut(workers, func(w int, ex *exchange) error {
		env, out := x.fork().env, outbox{ex: ex}
		var slab tupleSlab
		var evalErr error
		err := scanSlice(ss, ex, w, workers, s.from.Class, lsn, func(oid datum.OID, attrs map[string]datum.Value) bool {
			c := cand{oid: oid, attrs: attrs}
			ok, err := s.passes(env, c)
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true
			}
			t := slab.next(len(p.vars))
			t[s.slot] = c
			return out.add(t)
		})
		if err != nil {
			return err
		}
		out.flush()
		return evalErr
	})
}

// --- partitioned hash build ---

// fillHash runs scan, filing every object it visits in t under its
// build key. Null and missing keys never equal anything and are left
// out; a hard key error ends the scan.
func fillHash(env *query.Env, s *step, t *hashTable,
	scan func(fn func(datum.OID, map[string]datum.Value) bool) error) error {

	var keyErr error
	err := scan(func(oid datum.OID, attrs map[string]datum.Value) bool {
		env.Bind(s.from.Var, oid, attrs)
		v, err := env.Eval(s.buildKey)
		if errors.Is(err, query.ErrNoValue) {
			return true
		}
		if err != nil {
			keyErr = err
			return false
		}
		if !v.IsNull() {
			t.add(v.Key(), cand{oid: oid, attrs: attrs})
		}
		return true
	})
	if keyErr != nil {
		return keyErr
	}
	return err
}

// buildHash constructs the build side of a hash step, partitioned
// s.par ways. One worker is one inline ScanClass. With a ShardScanner
// and more workers the build fans out over shard slices at one pinned
// LSN, each worker filling a private table, then merges per partition
// — merge workers own disjoint partitions, so the whole build is
// lock-free.
func (p *Plan) buildHash(x *execCtx, s *step) (*hashTable, error) {
	ss, sharded := x.r.(ShardScanner)
	workers := 1
	if sharded {
		workers = min(s.par, ss.ShardCount())
	}
	if workers <= 1 {
		t := newHashTable(s.par)
		return t, fillHash(x.env, s, t, func(fn func(datum.OID, map[string]datum.Value) bool) error {
			return x.r.ScanClass(s.from.Class, fn)
		})
	}

	lsn, release := ss.PinShards()
	defer release()
	locals := make([]*hashTable, workers)
	_, err := p.fanOut(workers, func(w int, ex *exchange) error {
		locals[w] = newHashTable(s.par)
		return fillHash(x.fork().env, s, locals[w], func(fn func(datum.OID, map[string]datum.Value) bool) error {
			return scanSlice(ss, ex, w, workers, s.from.Class, lsn, fn)
		})
	})
	if err != nil {
		return nil, err
	}

	merged := newHashTable(s.par)
	mworkers := min(workers, len(merged.parts))
	var mwg sync.WaitGroup
	for w := 0; w < mworkers; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			for pi := w; pi < len(merged.parts); pi += mworkers {
				dst := merged.parts[pi]
				for _, lt := range locals {
					for k, cs := range lt.parts[pi] {
						dst[k] = append(dst[k], cs...)
					}
				}
			}
		}(w)
	}
	mwg.Wait()
	return merged, nil
}

// --- parallel partial aggregation ---

// parallelAggregate accumulates the select items' aggregates over the
// canonically sorted tuples in contiguous chunks, one worker each,
// then merges the partials in chunk order. It declines with nil states
// when the plan or the input is too narrow to fan out, or when any item
// refuses an exact merge (order-sensitive accumulation — float sums,
// averages, incomparable min/max partials); the caller then
// accumulates serially, preserving bit-identical output.
func (p *Plan) parallelAggregate(x *execCtx, tuples []tuple) ([]*query.AggState, error) {
	workers := min(p.maxPar(), (len(tuples)+joinChunk-1)/joinChunk)
	if workers <= 1 {
		return nil, nil
	}
	per := (len(tuples) + workers - 1) / workers
	partials := make([][]*query.AggState, workers)
	_, err := p.fanOut(workers, func(w int, _ *exchange) error {
		lo, hi := w*per, min((w+1)*per, len(tuples))
		if lo >= hi {
			return nil
		}
		env := x.fork().env
		partials[w] = newAggStates(len(p.Query.Select))
		for _, t := range tuples[lo:hi] {
			if err := p.accumulate(env, partials[w], t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged []*query.AggState
	for _, part := range partials {
		if part == nil {
			continue
		}
		if merged == nil {
			merged = part
			continue
		}
		for i, s := range p.Query.Select {
			if !query.MergeAggState(merged[i], part[i], s.Expr) {
				return nil, nil
			}
		}
	}
	return merged, nil
}
