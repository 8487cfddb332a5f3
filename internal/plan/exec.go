package plan

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/query"
)

// cand is one candidate object produced by a step's access path. Row
// is the reader's: the stored version, shared and immutable
// (query.Reader), held by reference in hash tables and tuples.
type cand = query.Binding

// tuple is one join-output row: a binding per syntactic FROM slot. With
// the event slot after it (Plan.width) it is a compiled closure's frame.
type tuple = query.Frame

// compareTuples is the canonical order: slot-wise by OID.
func compareTuples(a, b tuple) int {
	for i := range a {
		if a[i].OID != b[i].OID {
			return cmp.Compare(a[i].OID, b[i].OID)
		}
	}
	return 0
}

// batch is a stage's output: n tuples of w bindings each, back to back
// in cells. The last stage also evaluates what the query selects, over
// every tuple it produces, while the tuple's objects are still in
// cache: for tuple i rows[i] holds the select list, then the ORDER BY
// keys; an aggregate query accumulates into part instead.
type batch struct {
	w, n  int
	cells []cand
	rows  [][]datum.Value
	part  []query.AggState
}

func (b *batch) tuple(i int) tuple { return b.cells[i*b.w : (i+1)*b.w : (i+1)*b.w] }

// sink collects one worker's output batch.
type sink struct {
	batch
	p    *Plan         // on the last stage: whose select list to evaluate
	slab []datum.Value // where the next rows are carved from
}

// newSink returns a sink for step s's output (nil: the seed tuple's)
// with room for rows tuples — an estimate, so capped.
func (p *Plan) newSink(s *step, rows float64) *sink {
	k := &sink{batch: batch{w: len(p.vars)}}
	k.cells = make([]cand, 0, int(min(rows, 1<<14))*k.w)
	if len(p.steps) == 0 || s == p.steps[len(p.steps)-1] {
		if k.p = p; p.aggs != nil {
			k.part = make([]query.AggState, len(p.aggs))
		} else {
			k.rows = make([][]datum.Value, 0, cap(k.cells)/max(k.w, 1))
		}
	}
	return k
}

// add appends frame t's tuple (copied) and, on the last stage, its row,
// carved from slabs that double up to rowSlab rows: a one-row condition
// query allocates one row, a scan one slab per rowSlab. Missing is null.
func (k *sink) add(t tuple) error {
	k.cells = append(room(k.cells, k.w), t[:k.w]...)
	k.n++
	switch {
	case k.p == nil:
		return nil
	case k.part != nil:
		return k.p.accumulate(k.part, t)
	}
	m := len(k.p.proj)
	if len(k.slab) < max(m, 1) {
		k.slab = make([]datum.Value, max(m, 1)*min(max(k.n-1, 1), rowSlab))
	}
	row := k.slab[:m:m]
	k.slab = k.slab[m:]
	for i, fn := range k.p.proj {
		v, err := fn(t)
		if err != nil && err != query.ErrNoValue {
			return err
		}
		row[i] = v
	}
	k.rows = append(room(k.rows, 1), row)
	return nil
}

// room makes space for n more elements by doubling: append's own growth,
// a quarter once a slice is large, copies five times the final size.
func room[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		return slices.Grow(s, max(len(s), n))
	}
	return s
}

// rowSlab caps how many rows share one allocation (and so how many a
// caller keeping one row of a Result keeps alive).
const rowSlab = 128

// --- step candidates: pin / index scan / extent scan / hash probe ---

// stepCands is the one access-path implementation: Open collects the
// step's candidates for one outer tuple, join filters them through the
// residuals. Every stage worker owns one and re-Opens it per outer row.
type stepCands struct {
	s     *step
	cands []cand

	// table is the hash step's build side, built by the stage before
	// any probe and immutable afterwards (shared by all its workers);
	// key and ext are this worker's probe-key and tuple buffers.
	table *hashTable
	key   []byte
	ext   tuple
	ev    tuple // the execution's event slot, if the plan has one
}

// Open collects the candidates for outer tuple t, whose placed slots the
// step's pin, bounds or probe key may read. A missing value there means
// none: the residual that chose the path is unknown=false for every row.
func (sc *stepCands) Open(r query.Reader, t tuple) error {
	s := sc.s
	sc.cands = sc.cands[:0]
	switch s.access {
	case accessPin:
		v, err := s.keyFn(t)
		if err != nil || v.Kind() != datum.KindOID {
			return hard(err) // the residual comparison to a non-OID is always false
		}
		if cls, row, ok := r.Fetch(v.AsOID()); ok && cls == s.from.Class {
			sc.cands = append(sc.cands, cand{OID: v.AsOID(), Row: row})
		}
		return nil
	case accessIndex:
		bound := func(fn query.ValueFunc) (*datum.Value, error) {
			if fn == nil {
				return nil, nil
			}
			v, err := fn(t)
			return &v, err
		}
		lo, err := bound(s.loFn)
		hi := lo
		if err == nil && s.hi != s.lo {
			hi, err = bound(s.hiFn)
		}
		if err != nil {
			return hard(err)
		}
		oids, ok := r.LookupRange(s.from.Class, s.attr, lo, hi, s.loInc, s.hiInc)
		if !ok {
			// The index vanished (or the reader has none): degrade to the
			// extent scan; the residuals keep the result identical.
			return sc.openExtent(r)
		}
		for _, oid := range oids {
			if cls, row, ok := r.Fetch(oid); ok && cls == s.from.Class {
				sc.cands = append(sc.cands, cand{OID: oid, Row: row})
			}
		}
		return nil
	case accessHash:
		v, err := s.keyFn(t)
		if err != nil || v.IsNull() {
			return hard(err)
		}
		// Bucket membership is a candidate set, not a verdict: datum keys
		// collide across int/float precision loss, and the residual
		// equality re-check decides — exactly the oracle's semantics.
		sc.key = v.AppendKey(sc.key[:0])
		sc.cands = sc.table.appendTo(sc.cands, sc.key)
		return nil
	default:
		return sc.openExtent(r)
	}
}

// hard filters the missing-value sentinel out of an access path's key
// evaluation: only a failed operator is an error.
func hard(err error) error {
	if err == query.ErrNoValue {
		return nil
	}
	return err
}

func (sc *stepCands) openExtent(r query.Reader) error {
	return r.ScanClass(sc.s.from.Class, func(oid datum.OID, row datum.Row) bool {
		sc.cands = append(sc.cands, cand{OID: oid, Row: row})
		return true
	})
}

// passes applies the residuals to t, whose slot for this step holds
// the candidate.
func (s *step) passes(t tuple) (bool, error) {
	for _, pass := range s.passFn {
		if ok, err := pass(t); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// --- staged execution ---

// Execute runs the plan against r with event arguments args, whichever
// it was built with, and returns query.Eval's result. The join output
// grows stage by stage from one tuple binding only args: a FROM-less
// plan has zero stages and emits that tuple as its single row, exactly
// like the oracle (which never consults WHERE there).
func (p *Plan) Execute(r query.Reader, args map[string]datum.Value) (*query.Result, error) {
	seed, t := p.newSink(nil, 1), make(tuple, p.width)
	ev := t[len(p.vars):] // the event slot, if the plan has one
	if len(ev) > 0 {
		ev[0].Row = p.events.Row(args)
	}
	b, err := p.settle([]batch{seed.batch}, seed.add(t))
	if err != nil {
		return nil, err
	}
	for i := range p.steps {
		if b.n == 0 {
			// No outer rows: every remaining stage is a no-op. The
			// oracle never visits an inner clause without an outer row,
			// so a hash build (and any build-key error) is skipped too.
			break
		}
		if b, err = p.stage(r, i, b, ev); err != nil {
			return nil, err
		}
	}
	// Restore the oracle's emission order (see the package comment)
	// unless production already followed it: access paths yield
	// ascending OIDs, an inline nested loop extends its outer tuples in
	// order and a fanned-out stage merges its workers' runs back
	// (mergeRuns), so plans that join in FROM order do.
	if b.part == nil && !b.sorted() {
		b = b.sort()
	}
	return p.emit(b, ev)
}

// settle turns the outputs of a stage's workers into the stage's batch.
// The last stage of an aggregate plan accumulated partial states in
// production order: if they merge exactly (query.Aggregate.Merge — the
// order cannot show) they are the answer and the tuples are dropped;
// if not the states are, and emit accumulates over the ordered tuples.
func (p *Plan) settle(outs []batch, err error) (batch, error) {
	if err != nil {
		return batch{}, err // a failed add leaves its batch half-written
	}
	if outs[0].part != nil {
		all := batch{w: outs[0].w, part: make([]query.AggState, len(p.aggs))}
		for k := range outs {
			all.n += outs[k].n
			for i, a := range p.aggs {
				if all.part != nil && !a.Merge(&all.part[i], &outs[k].part[i]) {
					all.part = nil
				}
			}
			outs[k].part = nil
		}
		if all.part != nil {
			return all, nil
		}
	}
	if len(outs) == 1 {
		return outs[0], nil
	}
	return mergeRuns(outs), nil
}

func (b *batch) sorted() bool {
	for i := 1; i < b.n; i++ {
		if compareTuples(b.tuple(i-1), b.tuple(i)) > 0 {
			return false
		}
	}
	return true
}

// sort returns b in canonical order. Equal tuples bind the same objects
// in every slot: no need for stability. The first slot's OID, which
// decides most comparisons, is sorted along with the tuple's index.
func (b *batch) sort() batch {
	type key struct {
		oid datum.OID
		i   int
	}
	keys := make([]key, b.n)
	for i := range keys {
		keys[i] = key{b.cells[i*b.w].OID, i}
	}
	slices.SortFunc(keys, func(x, y key) int {
		if x.oid != y.oid {
			return cmp.Compare(x.oid, y.oid)
		}
		return compareTuples(b.tuple(x.i), b.tuple(y.i))
	})
	out := batch{w: b.w, cells: make([]cand, 0, len(b.cells)), rows: make([][]datum.Value, 0, len(b.rows))}
	for _, k := range keys {
		out.take(b, k.i)
	}
	return out
}

// take appends tuple i of src, and its row if it has one.
func (b *batch) take(src *batch, i int) {
	b.cells = append(b.cells, src.tuple(i)...)
	b.n++
	if src.rows != nil {
		b.rows = append(b.rows, src.rows[i])
	}
}

// joinChunk is the outer-tuple granule stage workers claim.
const joinChunk = 64

// stage runs step i over the outer tuples and returns the extended
// tuples. The worker count is the step's planned parallelism capped by
// the work there is to claim; a single worker runs inline on the caller
// — no goroutine, no observation — so a small condition query pays only
// for its candidates. A hash step's build side is constructed first and
// shared immutably by every prober; pin, index and extent inners re-open
// per outer row inside each worker (an index-nested-loop join when the
// bounds are parameterized).
func (p *Plan) stage(r query.Reader, i int, outer batch, ev tuple) (batch, error) {
	s := p.steps[i]
	if rs, ok := r.(RangeScanner); ok && i == 0 && s.access == accessExtent && s.par > 1 {
		return p.parallelBase(s, rs, ev)
	}
	sc := stepCands{s: s, ev: ev}
	if s.access == accessHash {
		var err error
		if sc.table, err = p.buildHash(r, s); err != nil {
			return batch{}, err
		}
	}
	workers := min(s.par, (outer.n+joinChunk-1)/joinChunk)
	if workers <= 1 {
		out := p.newSink(s, s.estRows)
		err := sc.join(r, &outer, 0, outer.n, out)
		return p.settle([]batch{out.batch}, err)
	}
	// Workers claim chunks in ascending order, so each one's output
	// follows the outer order: a sorted outer gives one run per worker.
	var next atomic.Int64
	outs := make([]batch, workers)
	err := p.fanOut(workers, func(w int, stop *stopper) error {
		wsc, out := sc, p.newSink(s, s.estRows/float64(workers)) // private buffers; the hash table is shared
		for !stop.stopped() {
			lo := int(next.Add(1)-1) * joinChunk
			if lo >= outer.n {
				break
			}
			if err := wsc.join(r, &outer, lo, min(lo+joinChunk, outer.n), out); err != nil {
				return err
			}
			runtime.Gosched() // see fanOut
		}
		outs[w] = out.batch
		return nil
	})
	return p.settle(outs, err)
}

// join drives the step over outer tuples lo..hi on one goroutine: for
// each it re-Opens the access path (whose bounds or probe key read the
// outer tuple's placed slots) and adds every extension that passes the
// residuals to out.
func (sc *stepCands) join(r query.Reader, outer *batch, lo, hi int, out *sink) error {
	for i := lo; i < hi; i++ {
		// ext is the outer tuple and the event slot, with the candidate
		// in this step's slot.
		sc.ext = append(append(room(sc.ext[:0], outer.w+len(sc.ev)), outer.tuple(i)...), sc.ev...)
		if err := sc.Open(r, sc.ext); err != nil {
			return err
		}
		for _, c := range sc.cands {
			sc.ext[sc.s.slot] = c
			ok, err := sc.s.passes(sc.ext)
			if ok {
				err = out.add(sc.ext)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// accumulate feeds t to every select item's aggregate state.
func (p *Plan) accumulate(aggs []query.AggState, t tuple) error {
	for i, a := range p.aggs {
		if err := a.Accumulate(&aggs[i], t); err != nil {
			return err
		}
	}
	return nil
}

// emit is the oracle's run() tail over the tuples in canonical order:
// the rows the last stage evaluated, or the aggregates accumulated
// here, then ORDER BY's stable sort, then LIMIT.
func (p *Plan) emit(b batch, ev tuple) (*query.Result, error) {
	q := p.Query
	res := &query.Result{}
	for _, s := range q.Select {
		res.Columns = append(res.Columns, s.Name())
	}
	var sortKeys [][]datum.Value
	if p.aggs != nil {
		aggs := b.part
		if aggs == nil { // no exact partial states: accumulate in canonical order
			aggs = make([]query.AggState, len(p.aggs))
			var f tuple
			for i := 0; i < b.n; i++ {
				f = append(append(f[:0], b.tuple(i)...), ev...)
				if err := p.accumulate(aggs, f); err != nil {
					return nil, err
				}
			}
		}
		row := make([]datum.Value, len(p.aggs))
		for i, a := range p.aggs {
			var err error
			if row[i], err = a.Finish(&aggs[i]); err != nil {
				return nil, err
			}
		}
		res.Rows = [][]datum.Value{row}
	} else if b.n > 0 { // the oracle's empty result has nil rows
		res.Rows = b.rows
		if nItems := len(q.Select); len(q.OrderBy) > 0 {
			sortKeys = make([][]datum.Value, b.n)
			for i, row := range b.rows {
				res.Rows[i], sortKeys[i] = row[:nItems:nItems], row[nItems:]
			}
		}
	}
	query.OrderAndLimit(q, res, sortKeys)
	return res, nil
}
