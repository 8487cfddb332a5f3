// Package plan is the physical query engine: one staged, materialized
// pipeline (identity pin, index scan, extent scan, filter,
// nested-loop/index-nested-loop join, hash join, aggregate,
// order/limit) behind a small cost-based planner. Every FROM clause is
// a join stage over the previous stage's tuples; the planner gives each
// stage a worker count, and a one-worker stage runs inline.
//
// The planner chooses an access path per FROM clause — identity pin,
// secondary-index probe, hash-table build, or extent scan — and a
// join order, using two statistics from the Catalog: per-class extent
// cardinality (maintained O(1) by the store) and capped index-range
// counts. Conditions and CLI queries that join event arguments
// against large classes stop being O(extent).
//
// Plan invariance. Every admissible plan returns *exactly* the result
// the tree-walk oracle (query.Eval) returns — same rows, same order,
// bit-identical floats — because:
//
//   - The tree-walk emits join tuples in lexicographic OID order of
//     the syntactic FROM variables: every level visits strictly
//     ascending OIDs (extents are OID-ordered, index candidates are
//     deduplicated and sorted, a pin visits one), so the emission
//     sequence of (oid_1, ..., oid_n) tuples is the lexicographic
//     order of the distinct tuples it produces. The executor
//     therefore materializes the join output of *any* step order and
//     worker interleaving and restores that order with one canonical
//     sort.
//   - Access paths never decide membership: the conjunct that chose a
//     pin, probe, or hash bucket is re-applied as a residual filter,
//     so index false positives and hash-key collisions (int/float
//     keys encode through the same float64 order) are filtered
//     identically to the oracle's residual re-check.
//   - Expressions are compiled once per plan (query.FrameCompiler) into
//     closures over the join tuple itself — a range variable is a slot,
//     the event arguments are constants — with the oracle's
//     null/missing-value rules and its operator and aggregate kernels;
//     the differential tests hold the compiled forms to the oracle's
//     tree walk. Rows come out in canonical order, where ORDER BY's
//     stable sort starts, and aggregates are accumulated in it unless
//     the order provably cannot show (query.Aggregate.Merge).
//
// Evaluation order. The order in which the conjuncts of a WHERE clause
// are evaluated is unspecified, and a query fails only if a conjunct
// that is evaluated fails. A plan places each conjunct on the earliest
// step that binds its variables and stops at the first false one, the
// Rule Manager tests event-only conjuncts (guards) before there is a
// query at all, and the oracle walks them left to right: when one
// conjunct is false and another would raise a hard error (a type
// error, a division by zero), the query comes back empty or fails
// depending on which was reached first. Queries that evaluate without
// hard errors are invariant.
package plan

import (
	"math"
	"runtime"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/query"
)

// Catalog supplies planner statistics. The object manager's readers
// implement it against the store; plan.Run type-asserts it from the
// query.Reader, so any reader may decline by not implementing it.
type Catalog interface {
	// ExtentEstimate approximates the class's extent cardinality.
	ExtentEstimate(class string) int
	// HasIndex reports whether class.attr has a secondary index.
	HasIndex(class, attr string) bool
	// IndexEstimate counts index entries in [lo, hi] on class.attr,
	// stopping at limit; ok is false when no index exists.
	IndexEstimate(class, attr string, lo, hi *datum.Value, loInc, hiInc bool, limit int) (int, bool)
}

// Options constrain the planner; the zero value lets it choose
// freely. The constraints exist for the differential tests and the
// planner-on/off benchmarks.
type Options struct {
	// DisableIndex forbids identity pins and index scans: every
	// non-hash access is a full extent scan.
	DisableIndex bool
	// DisableHash forbids hash joins.
	DisableHash bool
	// ForceOrder keeps the syntactic FROM order.
	ForceOrder bool
	// Parallelism caps the workers per stage: 0 derives it from
	// GOMAXPROCS (capped at maxParallelism), 1 runs every stage inline
	// on the caller, N>1 allows up to N workers per stage. The worker
	// count never changes the result: the canonical OID order is
	// restored whatever the production order, and order-sensitive
	// aggregates accumulate on one goroutine (query.Aggregate.Merge).
	Parallelism int
	// ParallelThreshold is the estimated input cardinality (extent
	// size for scans and hash builds, outer rows for joins) a step
	// must reach before it fans out; below it worker setup costs more
	// than it saves. 0 means defaultParallelThreshold; negative removes
	// the floor so every eligible step parallelizes — for tests.
	ParallelThreshold int
	// Obs receives the executor's fan-out width and gather-skew
	// observations; nil records nothing.
	Obs *obs.Metrics
}

type access int

const (
	accessExtent access = iota // scan the class extent
	accessIndex                // probe a secondary index
	accessPin                  // fetch one object by identity
	accessHash                 // build a hash table on the extent, probe per outer row
)

func (a access) String() string {
	switch a {
	case accessIndex:
		return "index scan"
	case accessPin:
		return "identity pin"
	case accessHash:
		return "hash join"
	default:
		return "extent scan"
	}
}

// step is one level of the left-deep pipeline: how to produce
// candidate objects for one FROM clause given the outer bindings.
type step struct {
	from query.FromClause
	slot int // position in the syntactic FROM order (canonical sort key)

	access access

	// key is accessPin's expression yielding the object identity, or
	// accessHash's probe key; both constant w.r.t. the outer bindings.
	key query.Expr

	// accessIndex: bounds on the from.Class index over attr. Nil
	// means unbounded; param marks bounds referencing outer range
	// variables (re-evaluated per outer row: an index-nested-loop
	// probe).
	attr         string
	lo, hi       query.Expr
	loInc, hiInc bool
	param        bool

	// accessHash: the build key, a path on this step's variable.
	buildKey query.Expr

	// residual predicates applied after this step's variable binds.
	// Every WHERE conjunct lands in exactly one step's residual list —
	// including the conjunct that chose the access path, so false
	// positives from any path are re-filtered.
	residual []query.Expr

	extent  float64 // the class's estimated extent size
	estRows float64 // cumulative output rows after this step
	estCost float64 // cost charged for this step

	// par is the stage's worker cap (0 or 1 means inline on the
	// caller): shard workers for a base extent scan or a hash build,
	// probe workers for a join.
	par int

	// The expressions above compiled over the join tuple, filled in for
	// the steps of a finished plan (Plan.finish): keyFn is the pin or
	// the probe key, passFn the residuals.
	keyFn, loFn, hiFn, buildFn query.ValueFunc
	passFn                     []query.PredFunc
}

// Plan is a compiled physical plan. It is immutable after Build and
// safe for concurrent Execute calls.
type Plan struct {
	Query *query.Query
	vars  []string // syntactic FROM order
	steps []*step  // join order
	cost  float64
	stats bool // a Catalog informed the estimates

	// The select list compiled over the join tuple: proj is the items
	// followed by the ORDER BY keys, what the last stage evaluates per
	// tuple; an aggregate query has aggs instead.
	proj []query.ValueFunc
	aggs []*query.Aggregate

	obs *obs.Metrics // fan-out/gather-skew observer; nil-safe
}

const (
	fetchCost     = 2.0  // charge per candidate fetched via OID
	defaultExtent = 1000 // assumed extent size without a catalog
	indexCountCap = 4096 // cap for plan-time index range counts
	eqSel         = 0.05 // selectivity of a residual equality
	rangeSel      = 0.33 // selectivity of a residual comparison
	otherSel      = 0.75 // selectivity of any other residual

	// maxParallelism caps the derived degree of parallelism: past the
	// store's shard count and typical core counts, more workers only
	// add merge work.
	maxParallelism = 16
	// defaultParallelThreshold is the estimated input cardinality at
	// which a step starts fanning out (see Options.ParallelThreshold).
	defaultParallelThreshold = 2048
)

// Build compiles a physical plan for q. cat may be nil (no
// statistics: the planner keeps the syntactic order and mimics the
// tree-walk's access heuristics). args are the event arguments —
// available at plan time on every call path, they are compiled into the
// plan's expressions as constants and let the planner evaluate
// literal/event-only index bounds for real range counts.
func Build(q *query.Query, cat Catalog, args map[string]datum.Value, opt Options) *Plan {
	p := &Plan{Query: q, stats: cat != nil}
	known := map[string]bool{}
	for _, f := range q.From {
		p.vars = append(p.vars, f.Var)
		known[f.Var] = true
	}
	conjuncts := query.SplitConjuncts(q.Where)
	fc := query.NewFrameCompiler(p.vars, args)

	// Greedy join-order + access-path selection: repeatedly place the
	// remaining clause whose best access yields the smallest
	// intermediate result (ties broken by step cost). Minimizing
	// output cardinality, not step cost, is what makes the greedy
	// choose a selective index probe over a cheap-but-wide outer
	// extent scan.
	bound := map[string]bool{} // the variables of the placed clauses
	remaining := make([]query.FromClause, len(q.From))
	slots := make([]int, len(q.From))
	copy(remaining, q.From)
	for i := range slots {
		slots[i] = i
	}
	outRows := 1.0
	for len(remaining) > 0 {
		bestI := 0
		var best *step
		n := len(remaining)
		if opt.ForceOrder || cat == nil {
			n = 1 // only the syntactically next clause
		}
		for i := 0; i < n; i++ {
			opts := accessOptions(remaining[i], slots[i], conjuncts, bound, cat, opt)
			for _, s := range opts {
				costStep(s, conjuncts, known, bound, fc, cat, outRows)
				if best == nil || betterStep(s, best) {
					best, bestI = s, i
				}
			}
		}
		p.steps = append(p.steps, best)
		outRows = best.estRows
		bound[best.from.Var] = true
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
		slots = append(slots[:bestI], slots[bestI+1:]...)
	}
	p.finish(conjuncts, fc, cat, opt)
	return p
}

// finish turns a chosen step sequence into an executable plan: cost,
// residual placement, parallelism, and the compiled expressions.
func (p *Plan) finish(conjuncts []query.Expr, fc *query.FrameCompiler, cat Catalog, opt Options) {
	for _, s := range p.steps {
		p.cost += s.estCost
	}
	assignResiduals(p, conjuncts)
	p.obs = opt.Obs
	markParallel(p, cat, opt)

	compile := func(x query.Expr) query.ValueFunc {
		if x == nil {
			return nil
		}
		return fc.Value(x)
	}
	for _, s := range p.steps {
		s.loFn, s.buildFn = compile(s.lo), compile(s.buildKey)
		if s.hiFn = s.loFn; s.hi != s.lo {
			s.hiFn = compile(s.hi)
		}
		s.keyFn = compile(s.key)
		for _, r := range s.residual {
			s.passFn = append(s.passFn, fc.Pred(r))
		}
	}
	q := p.Query
	if len(q.Select) > 0 && query.HasAggregate(q.Select[0].Expr) {
		// An aggregate query: one output row accumulated over the join.
		for _, it := range q.Select {
			p.aggs = append(p.aggs, fc.Aggregate(it.Expr))
		}
		return
	}
	p.proj = make([]query.ValueFunc, 0, len(q.Select)+len(q.OrderBy))
	for _, it := range q.Select {
		p.proj = append(p.proj, fc.Value(it.Expr))
	}
	for _, o := range q.OrderBy {
		p.proj = append(p.proj, fc.Value(o.Expr))
	}
}

// resolveParallelism turns Options.Parallelism into a concrete worker
// cap (always >= 1).
func resolveParallelism(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, min(n, maxParallelism))
}

// markParallel assigns each step's degree of parallelism: a step fans
// out when the work it distributes — the extent for a base scan or a
// hash build, the outer tuples for a join probe — is estimated past
// the threshold. The decision is cost-gated so tiny queries stay
// inline; it never affects results (see the package comment), only
// how the executor produces them.
func markParallel(p *Plan, cat Catalog, opt Options) {
	dop := resolveParallelism(opt.Parallelism)
	if dop <= 1 {
		return
	}
	thr := float64(opt.ParallelThreshold)
	if opt.ParallelThreshold == 0 {
		thr = defaultParallelThreshold
	} else if opt.ParallelThreshold < 0 {
		thr = 0
	}
	for i, s := range p.steps {
		extent := s.extent
		switch {
		case i == 0:
			// Only an unselective base extent scan benefits; pins and
			// index probes are already sub-linear.
			if s.access == accessExtent && extent >= thr {
				s.par = dop
			}
		case s.access == accessHash:
			// Parallel when either side is big: the build fans out
			// over shards, the probe over outer tuples.
			if extent >= thr || p.steps[i-1].estRows >= thr {
				s.par = dop
			}
		default:
			if p.steps[i-1].estRows >= thr {
				s.par = dop
			}
		}
	}
}

// accessOptions returns every admissible access path for clause f
// given the currently bound variables. The first option is always the
// extent scan (the universal fallback), so the list is never empty.
func accessOptions(f query.FromClause, slot int, conjuncts []query.Expr,
	bound map[string]bool, cat Catalog, opt Options) []*step {

	mk := func(a access) *step {
		return &step{from: f, slot: slot, access: a}
	}
	opts := []*step{mk(accessExtent)}
	for _, c := range conjuncts {
		b, ok := c.(*query.Binary)
		if !ok {
			continue
		}
		// Identity pin: f.Var = <const w.r.t. bound>.
		if !opt.DisableIndex && b.Op == query.OpEq {
			for _, side := range [][2]query.Expr{{b.L, b.R}, {b.R, b.L}} {
				if v, ok := side[0].(*query.VarRef); ok && v.Name == f.Var && constWrt(side[1], bound) {
					s := mk(accessPin)
					s.key = side[1]
					opts = append(opts, s)
					break
				}
			}
		}
		// Sargable path comparison: f.Var.attr OP <const w.r.t. bound>.
		var path *query.Path
		var constExpr query.Expr
		op := b.Op
		if pp, ok := b.L.(*query.Path); ok && pp.Var == f.Var && constWrt(b.R, bound) {
			path, constExpr = pp, b.R
		} else if pp, ok := b.R.(*query.Path); ok && pp.Var == f.Var && constWrt(b.L, bound) {
			path, constExpr = pp, b.L
			op = query.FlipOp(op)
		}
		if path == nil {
			continue
		}
		indexable := cat == nil || cat.HasIndex(f.Class, path.Attr)
		if !opt.DisableIndex && indexable {
			s := mk(accessIndex)
			s.attr = path.Attr
			s.param = !isEventConst(constExpr)
			switch op {
			case query.OpEq:
				s.lo, s.hi, s.loInc, s.hiInc = constExpr, constExpr, true, true
			case query.OpLt:
				s.hi, s.hiInc = constExpr, false
			case query.OpLe:
				s.hi, s.hiInc = constExpr, true
			case query.OpGt:
				s.lo, s.loInc = constExpr, false
			case query.OpGe:
				s.lo, s.loInc = constExpr, true
			default:
				s = nil
			}
			if s != nil {
				opts = append(opts, s)
			}
		}
		// Hash join: equality on a path whose other side references at
		// least one bound variable (a pure event/literal key gains
		// nothing over a filtered scan).
		if !opt.DisableHash && b.Op == query.OpEq && !isEventConst(constExpr) {
			s := mk(accessHash)
			s.buildKey = path
			s.key = constExpr
			opts = append(opts, s)
		}
	}
	return opts
}

// betterStep ranks candidate steps: fewer estimated output rows wins
// (within a 0.1% tolerance so float noise cannot flip a tie), then
// lower step cost.
func betterStep(a, b *step) bool {
	if a.estRows*1.001 < b.estRows {
		return true
	}
	if b.estRows*1.001 < a.estRows {
		return false
	}
	return a.estCost < b.estCost
}

// constWrt reports whether e is evaluable from the bound range
// variables alone: literals, event references and paths on bound
// variables qualify; a variable that is not bound — not placed yet, or
// not in FROM at all — does not.
func constWrt(e query.Expr, bound map[string]bool) bool {
	ok := true
	walkVars(e, func(name string) { ok = ok && bound[name] })
	return ok
}

// isEventConst reports whether e is constant w.r.t. an empty binding
// set — only literals and event references.
func isEventConst(e query.Expr) bool { return constWrt(e, nil) }

// costStep fills s.estCost and s.estRows (cumulative after the step).
func costStep(s *step, conjuncts []query.Expr, known, bound map[string]bool,
	fc *query.FrameCompiler, cat Catalog, outRows float64) {

	extent := float64(defaultExtent)
	if cat != nil {
		extent = math.Max(1, float64(cat.ExtentEstimate(s.from.Class)))
	}
	s.extent = extent
	var perOuter, cost float64
	switch s.access {
	case accessPin:
		perOuter = 1
		cost = outRows * (1 + fetchCost)
	case accessIndex:
		k := indexRows(s, fc, cat, extent)
		perOuter = k
		cost = outRows * (1 + fetchCost*k)
	case accessHash:
		bucket := math.Max(1, extent/64)
		perOuter = bucket
		cost = extent + outRows*(1+bucket)
	default:
		perOuter = extent
		cost = outRows * (1 + extent)
	}
	// Residual selectivity of the other conjuncts that become
	// checkable once this variable binds.
	sel := 1.0
	for _, c := range conjuncts {
		if checkableAfter(c, s.from.Var, known, bound) {
			if b, ok := c.(*query.Binary); ok {
				switch b.Op {
				case query.OpEq:
					sel *= eqSel
				case query.OpNe, query.OpLt, query.OpLe, query.OpGt, query.OpGe:
					sel *= rangeSel
				default:
					sel *= otherSel
				}
			} else {
				sel *= otherSel
			}
		}
	}
	// The access path's own conjunct already restricted perOuter for
	// pin/index/hash; applying every residual again under-counts, but
	// uniformly across plans — good enough to rank them.
	rows := outRows * perOuter * math.Max(sel, eqSel*eqSel)
	s.estRows = math.Max(rows, 0.001)
	s.estCost = cost
}

// indexRows estimates candidates per probe of s's index bounds.
func indexRows(s *step, fc *query.FrameCompiler, cat Catalog, extent float64) float64 {
	eq := s.lo != nil && s.hi != nil
	if s.param || cat == nil {
		if eq {
			return math.Max(1, extent/64)
		}
		return math.Max(1, extent/4)
	}
	// Bounds are literal/event-only, so they compile to constants:
	// evaluate (there is no frame to read) and count for real.
	constant := func(x query.Expr) (*datum.Value, bool) {
		if x == nil {
			return nil, true
		}
		v, err := fc.Value(x)(nil)
		return &v, err == nil
	}
	loV, loOK := constant(s.lo)
	hiV, hiOK := constant(s.hi)
	if !loOK || !hiOK {
		return 1 // missing event arg: the residual rejects everything
	}
	if n, ok := cat.IndexEstimate(s.from.Class, s.attr, loV, hiV, s.loInc, s.hiInc, indexCountCap); ok {
		return math.Max(1, float64(n))
	}
	if eq {
		return math.Max(1, extent/64)
	}
	return math.Max(1, extent/4)
}

// assignResiduals places every WHERE conjunct on the earliest step at
// which all the range variables it references are bound (unknown
// variables never bind: such a conjunct evaluates to unknown=false at
// its earliest position, exactly like the oracle).
func assignResiduals(p *Plan, conjuncts []query.Expr) {
	boundAt := map[string]int{}
	for i, s := range p.steps {
		boundAt[s.from.Var] = i
	}
	for _, c := range conjuncts {
		at := 0
		walkVars(c, func(name string) { at = max(at, boundAt[name]) })
		if len(p.steps) > 0 {
			p.steps[at].residual = append(p.steps[at].residual, c)
		}
	}
}

// walkVars calls fn with the range variable of every VarRef and Path
// in e.
func walkVars(e query.Expr, fn func(name string)) {
	switch v := e.(type) {
	case *query.VarRef:
		fn(v.Name)
	case *query.Path:
		fn(v.Var)
	case *query.Binary:
		walkVars(v.L, fn)
		walkVars(v.R, fn)
	case *query.Unary:
		walkVars(v.X, fn)
	case *query.Call:
		for _, a := range v.Args {
			walkVars(a, fn)
		}
	}
}

// checkableAfter reports whether conjunct c references name and
// becomes fully evaluable once name binds on top of the bound set
// (variables outside FROM never bind and are ignored).
func checkableAfter(c query.Expr, name string, known, bound map[string]bool) bool {
	uses, ok := false, true
	walkVars(c, func(v string) {
		uses = uses || v == name
		ok = ok && (v == name || bound[v] || !known[v])
	})
	return uses && ok
}

// Run plans and executes q against r in one call — the engine's
// default query path. Statistics come from the reader itself when it
// implements Catalog (the object manager's readers do). The zero
// Options apply: parallelism derives from GOMAXPROCS.
func Run(q *query.Query, r query.Reader, args map[string]datum.Value) (*query.Result, error) {
	return Exec(Options{})(q, r, args)
}

// Exec returns a Run-shaped executor with fixed options — what the
// engine installs into the condition evaluator (cond.SetExec) so rule
// conditions run with the configured parallelism and observer.
func Exec(opt Options) func(*query.Query, query.Reader, map[string]datum.Value) (*query.Result, error) {
	return func(q *query.Query, r query.Reader, args map[string]datum.Value) (*query.Result, error) {
		cat, _ := r.(Catalog)
		return Build(q, cat, args, opt).Execute(r, args)
	}
}
