package plan

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/query"
)

// execCtx is the state one goroutine evaluates with: the reader, the
// expression environment holding the bindings of the current pipeline
// prefix, and the event arguments (kept so stage workers can fork
// their own environments).
type execCtx struct {
	r    query.Reader
	env  *query.Env
	args map[string]datum.Value
}

// fork returns a context with a private environment for one worker.
func (x *execCtx) fork() *execCtx {
	return &execCtx{r: x.r, env: query.NewEnv(x.r, x.args), args: x.args}
}

// cand is one candidate object produced by a step's access path. attrs
// is the reader's map: the stored version, shared and read-only
// (query.Reader), held by reference in hash tables and tuples.
type cand struct {
	oid   datum.OID
	attrs map[string]datum.Value
}

// tuple is one join-output row: a binding per syntactic FROM slot.
type tuple []cand

// compareTuples is the canonical order: slot-wise by OID.
func compareTuples(a, b tuple) int {
	for i := range a {
		if a[i].oid != b[i].oid {
			return cmp.Compare(a[i].oid, b[i].oid)
		}
	}
	return 0
}

// tupleSlab carves a stage worker's output tuples out of shared backing
// arrays — doubling up to parallelBatch rows, so a one-row condition
// query still allocates one row — instead of one allocation per tuple.
type tupleSlab struct {
	rows int
	buf  []cand
}

func (s *tupleSlab) next(width int) tuple {
	if len(s.buf) < width {
		s.rows = min(max(2*s.rows, 1), parallelBatch)
		s.buf = make([]cand, width*s.rows)
	}
	t := tuple(s.buf[:width:width])
	s.buf = s.buf[width:]
	return t
}

// --- step candidates: pin / index scan / extent scan / hash probe ---

// stepCands is the one access-path implementation: Open collects the
// step's candidates for the current outer bindings, join filters them
// through the residuals. Every stage worker owns one and re-Opens it
// per outer row.
type stepCands struct {
	s     *step
	cands []cand

	// table is the hash step's build side, built by the stage before
	// any probe and immutable afterwards (shared by all its workers).
	table *hashTable
}

func (sc *stepCands) Open(x *execCtx) error {
	sc.cands = sc.cands[:0]
	switch sc.s.access {
	case accessPin:
		return sc.openPin(x)
	case accessIndex:
		return sc.openIndex(x)
	case accessHash:
		return sc.openHash(x)
	default:
		return sc.openExtent(x)
	}
}

func (sc *stepCands) openPin(x *execCtx) error {
	v, err := x.env.Eval(sc.s.pin)
	if err != nil {
		if errors.Is(err, query.ErrNoValue) {
			return nil // residual `var = <missing>` rejects every row anyway
		}
		return err
	}
	if v.Kind() != datum.KindOID {
		return nil // residual comparison to a non-OID is always false
	}
	cls, attrs, ok := x.r.Fetch(v.AsOID())
	if !ok || cls != sc.s.from.Class {
		return nil
	}
	sc.cands = append(sc.cands, cand{oid: v.AsOID(), attrs: attrs})
	return nil
}

func (sc *stepCands) openIndex(x *execCtx) error {
	var loV, hiV *datum.Value
	if sc.s.lo != nil {
		v, err := x.env.Eval(sc.s.lo)
		if err != nil {
			if errors.Is(err, query.ErrNoValue) {
				return nil // the residual comparison is unknown=false for every row
			}
			return err
		}
		loV = &v
	}
	if sc.s.hi != nil {
		if sc.s.hi == sc.s.lo {
			hiV = loV
		} else {
			v, err := x.env.Eval(sc.s.hi)
			if err != nil {
				if errors.Is(err, query.ErrNoValue) {
					return nil
				}
				return err
			}
			hiV = &v
		}
	}
	oids, ok := x.r.LookupRange(sc.s.from.Class, sc.s.attr, loV, hiV, sc.s.loInc, sc.s.hiInc)
	if !ok {
		// The index vanished (or the reader has none): degrade to the
		// extent scan; the residuals keep the result identical.
		return sc.openExtent(x)
	}
	for _, oid := range oids {
		cls, attrs, ok := x.r.Fetch(oid)
		if !ok || cls != sc.s.from.Class {
			continue
		}
		sc.cands = append(sc.cands, cand{oid: oid, attrs: attrs})
	}
	return nil
}

func (sc *stepCands) openExtent(x *execCtx) error {
	return x.r.ScanClass(sc.s.from.Class, func(oid datum.OID, attrs map[string]datum.Value) bool {
		sc.cands = append(sc.cands, cand{oid: oid, attrs: attrs})
		return true
	})
}

func (sc *stepCands) openHash(x *execCtx) error {
	v, err := x.env.Eval(sc.s.probeKey)
	if err != nil {
		if errors.Is(err, query.ErrNoValue) {
			return nil
		}
		return err
	}
	if v.IsNull() {
		return nil
	}
	// Bucket membership is a candidate set, not a verdict: datum keys
	// collide across int/float precision loss, and the residual
	// equality re-check decides — exactly the oracle's semantics.
	sc.cands = append(sc.cands, sc.table.get(v.Key())...)
	return nil
}

// passes binds c to the step's variable and applies the residuals.
func (s *step) passes(env *query.Env, c cand) (bool, error) {
	env.Bind(s.from.Var, c.oid, c.attrs)
	for _, r := range s.residual {
		if ok, err := env.EvalBool(r); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// --- staged execution ---

// Execute runs the plan against r with the given event arguments and
// returns a result identical to query.Eval's. The join output grows
// stage by stage from one empty tuple: a FROM-less plan has zero stages
// and emits that tuple as its single row, exactly like the oracle
// (which never consults WHERE there), and the canonical sort makes any
// production order emit identically.
func (p *Plan) Execute(r query.Reader, args map[string]datum.Value) (*query.Result, error) {
	x := &execCtx{r: r, env: query.NewEnv(r, args), args: args}
	tuples := []tuple{make(tuple, len(p.vars))}
	for i := range p.steps {
		if len(tuples) == 0 {
			// No outer rows: every remaining stage is a no-op. The
			// oracle never visits an inner clause without an outer row,
			// so a hash build (and any build-key error) is skipped too.
			break
		}
		var err error
		if tuples, err = p.stage(x, i, tuples); err != nil {
			return nil, err
		}
	}
	// Restore the oracle's emission order with the canonical sort (see
	// the package comment) unless production already followed it: access
	// paths yield ascending OIDs and an inline nested loop extends its
	// outer tuples in order, so plans that join in FROM order do. Equal
	// tuples bind the same objects in every slot: no need for stability.
	if !slices.IsSortedFunc(tuples, compareTuples) {
		slices.SortFunc(tuples, compareTuples)
	}
	return p.emit(x, tuples)
}

// joinChunk is the outer-tuple granule stage workers claim.
const joinChunk = 64

// stage runs step i over the materialized outer tuples and returns the
// extended tuples in any order. The worker count is the step's planned
// parallelism capped by the work there is to claim; a single worker
// runs inline on the caller — no goroutine, no channel, no gather
// observation — so a small condition query pays only for its
// candidates. A hash step's build side is constructed first and shared
// immutably by every prober; pin, index and extent inners re-open per
// outer row inside each worker (an index-nested-loop join when the
// bounds are parameterized).
func (p *Plan) stage(x *execCtx, i int, outer []tuple) ([]tuple, error) {
	s, placed := p.steps[i], p.steps[:i]
	if ss, ok := x.r.(ShardScanner); ok && i == 0 && s.access == accessExtent {
		if workers := min(s.par, ss.ShardCount()); workers > 1 {
			return p.parallelBase(x, s, ss, workers)
		}
	}
	sc := stepCands{s: s}
	if s.access == accessHash {
		var err error
		if sc.table, err = p.buildHash(x, s); err != nil {
			return nil, err
		}
	}
	workers := min(s.par, (len(outer)+joinChunk-1)/joinChunk)
	if workers <= 1 {
		var out []tuple
		err := sc.join(x, placed, outer, func(t tuple) bool {
			out = append(out, t)
			return true
		})
		return out, err
	}
	var next atomic.Int64
	return p.fanOut(workers, func(_ int, ex *exchange) error {
		// Private env and candidate buffer; the hash table is shared.
		wx, wsc, out := x.fork(), sc, outbox{ex: ex}
		for !ex.stopped() {
			lo := int(next.Add(1)-1) * joinChunk
			if lo >= len(outer) {
				break
			}
			hi := min(lo+joinChunk, len(outer))
			if err := wsc.join(wx, placed, outer[lo:hi], out.add); err != nil {
				return err
			}
		}
		out.flush()
		return nil
	})
}

// join drives the step over outer on one goroutine: for each outer
// tuple it binds the placed prefix, re-Opens the access path (whose
// bounds or probe key see the outer bindings through the env) and
// hands every surviving extension to emit until emit declines.
func (sc *stepCands) join(x *execCtx, placed []*step, outer []tuple, emit func(tuple) bool) error {
	var slab tupleSlab
	for _, t := range outer {
		for _, ps := range placed {
			c := t[ps.slot]
			x.env.Bind(ps.from.Var, c.oid, c.attrs)
		}
		if err := sc.Open(x); err != nil {
			return err
		}
		for _, c := range sc.cands {
			ok, err := sc.s.passes(x.env, c)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			nt := slab.next(len(t))
			copy(nt, t)
			nt[sc.s.slot] = c
			if !emit(nt) {
				return nil
			}
		}
	}
	return nil
}

// bind binds every slot of t to its FROM variable.
func (p *Plan) bind(env *query.Env, t tuple) {
	for slot, c := range t {
		env.Bind(p.vars[slot], c.oid, c.attrs)
	}
}

// accumulate feeds t to every select item's aggregate state.
func (p *Plan) accumulate(env *query.Env, aggs []*query.AggState, t tuple) error {
	p.bind(env, t)
	for i, s := range p.Query.Select {
		if err := env.Accumulate(aggs[i], s.Expr); err != nil {
			return err
		}
	}
	return nil
}

func newAggStates(n int) []*query.AggState {
	aggs := make([]*query.AggState, n)
	for i := range aggs {
		aggs[i] = &query.AggState{}
	}
	return aggs
}

// emit is the oracle's run() tail: select/aggregate per tuple in
// canonical order, then ORDER BY's stable sort, then LIMIT.
func (p *Plan) emit(x *execCtx, tuples []tuple) (*query.Result, error) {
	q := p.Query
	res := &query.Result{}
	for _, s := range q.Select {
		res.Columns = append(res.Columns, s.Name())
	}

	aggMode := len(q.Select) > 0 && query.HasAggregate(q.Select[0].Expr)
	var aggs []*query.AggState
	if aggMode {
		// Wide enough plans try chunked partial aggregation first; it
		// hands back exact merged states or declines (too few tuples,
		// or order-sensitive accumulation), in which case the loop
		// below runs over the same canonically sorted tuples —
		// bit-identical either way.
		var err error
		if aggs, err = p.parallelAggregate(x, tuples); err != nil {
			return nil, err
		}
		if aggs != nil {
			tuples = nil // already accumulated; skip the loop
		} else {
			aggs = newAggStates(len(q.Select))
		}
	}

	var sortKeys [][]datum.Value
	for _, t := range tuples {
		if aggMode {
			if err := p.accumulate(x.env, aggs, t); err != nil {
				return nil, err
			}
			continue
		}
		p.bind(x.env, t)
		row := make([]datum.Value, len(q.Select))
		for i, s := range q.Select {
			v, err := x.env.Eval(s.Expr)
			if err != nil && !errors.Is(err, query.ErrNoValue) {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		if len(q.OrderBy) > 0 {
			keys := make([]datum.Value, len(q.OrderBy))
			for i, o := range q.OrderBy {
				v, err := x.env.Eval(o.Expr)
				if err != nil && !errors.Is(err, query.ErrNoValue) {
					return nil, err
				}
				keys[i] = v
			}
			sortKeys = append(sortKeys, keys)
		}
	}

	if aggMode {
		row := make([]datum.Value, len(q.Select))
		for i, s := range q.Select {
			v, err := query.FinishAggregate(aggs[i], s.Expr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
	}
	query.OrderAndLimit(q, res, sortKeys)
	return res, nil
}
