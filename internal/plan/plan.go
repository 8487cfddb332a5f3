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
//   - Expression evaluation, null/missing-value comparison, and
//     aggregate accumulation run through the query package's own
//     evaluator (query.Env), in canonical order — so float sums
//     accumulate in the oracle's order and ORDER BY's stable sort
//     starts from the oracle's input sequence.
//
// The invariance holds for queries that evaluate without hard errors
// (type errors and division by zero); a failing query fails under
// every plan, but which row triggers the error first can differ.
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
	// count never changes the result: the canonical OID sort fixes
	// tuple order regardless of production order, and order-sensitive
	// aggregates re-accumulate on one goroutine (see MergeAggState).
	Parallelism int
	// ParallelThreshold is the estimated input cardinality (extent
	// size for scans and hash builds, outer rows for joins) a step
	// must reach before it fans out; below it worker setup and the
	// exchange cost more than they save. 0 means the default
	// (defaultParallelThreshold); negative removes the floor so every
	// eligible step parallelizes — for tests.
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

	// accessPin: expression yielding the object identity.
	pin query.Expr

	// accessIndex: bounds on the from.Class index over attr. Nil
	// means unbounded; param marks bounds referencing outer range
	// variables (re-evaluated per outer row: an index-nested-loop
	// probe).
	attr         string
	lo, hi       query.Expr
	loInc, hiInc bool
	param        bool

	// accessHash: build key (a path on this step's variable) and the
	// probe key (constant w.r.t. the outer bindings).
	buildKey query.Expr
	probeKey query.Expr

	// residual predicates applied after this step's variable binds.
	// Every WHERE conjunct lands in exactly one step's residual list —
	// including the conjunct that chose the access path, so false
	// positives from any path are re-filtered.
	residual []query.Expr

	estRows float64 // cumulative output rows after this step
	estCost float64 // cost charged for this step

	// par is the stage's worker cap (0 or 1 means inline on the
	// caller): shard workers for a base extent scan or a hash build,
	// probe workers for a join.
	par int
}

// Plan is a compiled physical plan. It is immutable after Build and
// safe for concurrent Execute calls.
type Plan struct {
	Query *query.Query
	vars  []string // syntactic FROM order
	steps []*step  // join order
	cost  float64
	stats bool // a Catalog informed the estimates

	obs *obs.Metrics // fan-out/gather-skew observer; nil-safe
}

// Cost returns the planner's total cost estimate (arbitrary units).
func (p *Plan) Cost() float64 { return p.cost }

const (
	fetchCost     = 2.0  // charge per candidate fetched via OID
	defaultExtent = 1000 // assumed extent size without a catalog
	indexCountCap = 4096 // cap for plan-time index range counts
	eqSel         = 0.05 // selectivity of a residual equality
	rangeSel      = 0.33 // selectivity of a residual comparison
	otherSel      = 0.75 // selectivity of any other residual

	// maxParallelism caps the derived degree of parallelism: past the
	// store's shard count and typical core counts, more workers only
	// add exchange traffic.
	maxParallelism = 16
	// defaultParallelThreshold is the estimated input cardinality at
	// which a step starts fanning out (see Options.ParallelThreshold).
	defaultParallelThreshold = 2048
)

// Build compiles a physical plan for q. cat may be nil (no
// statistics: the planner keeps the syntactic order and mimics the
// tree-walk's access heuristics). args are the event arguments —
// available at plan time on every call path, they let the planner
// evaluate literal/event-only index bounds for real range counts.
func Build(q *query.Query, cat Catalog, args map[string]datum.Value, opt Options) *Plan {
	p := &Plan{Query: q, stats: cat != nil}
	for _, f := range q.From {
		p.vars = append(p.vars, f.Var)
	}
	conjuncts := query.SplitConjuncts(q.Where)
	known := map[string]bool{}
	for _, v := range p.vars {
		known[v] = true
	}

	// Greedy join-order + access-path selection: repeatedly place the
	// remaining clause whose best access yields the smallest
	// intermediate result (ties broken by step cost). Minimizing
	// output cardinality, not step cost, is what makes the greedy
	// choose a selective index probe over a cheap-but-wide outer
	// extent scan.
	boundEnv := query.NewEnv(nil, args) // placed vars bound (dummies)
	constEnv := query.NewEnv(nil, args) // nothing bound: plan-time eval
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
			opts := accessOptions(remaining[i], slots[i], conjuncts, boundEnv, cat, opt)
			for _, s := range opts {
				costStep(s, conjuncts, known, boundEnv, constEnv, cat, outRows)
				if best == nil || betterStep(s, best) {
					best, bestI = s, i
				}
			}
		}
		p.steps = append(p.steps, best)
		p.cost += best.estCost
		outRows = best.estRows
		boundEnv.Bind(best.from.Var, 0, nil)
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
		slots = append(slots[:bestI], slots[bestI+1:]...)
	}

	assignResiduals(p, conjuncts, known)
	p.obs = opt.Obs
	markParallel(p, cat, opt)
	return p
}

// resolveParallelism turns Options.Parallelism into a concrete worker
// cap (always >= 1).
func resolveParallelism(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxParallelism {
		n = maxParallelism
	}
	if n < 1 {
		n = 1
	}
	return n
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
		extent := float64(defaultExtent)
		if cat != nil {
			extent = math.Max(1, float64(cat.ExtentEstimate(s.from.Class)))
		}
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
	bound *query.Env, cat Catalog, opt Options) []*step {

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
			if v, ok := b.L.(*query.VarRef); ok && v.Name == f.Var && bound.IsConstWrt(b.R) {
				s := mk(accessPin)
				s.pin = b.R
				opts = append(opts, s)
			} else if v, ok := b.R.(*query.VarRef); ok && v.Name == f.Var && bound.IsConstWrt(b.L) {
				s := mk(accessPin)
				s.pin = b.L
				opts = append(opts, s)
			}
		}
		// Sargable path comparison: f.Var.attr OP <const w.r.t. bound>.
		var path *query.Path
		var constExpr query.Expr
		op := b.Op
		if pp, ok := b.L.(*query.Path); ok && pp.Var == f.Var && bound.IsConstWrt(b.R) {
			path, constExpr = pp, b.R
		} else if pp, ok := b.R.(*query.Path); ok && pp.Var == f.Var && bound.IsConstWrt(b.L) {
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
			s.probeKey = constExpr
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

// isEventConst reports whether e is constant w.r.t. an empty binding
// set — only literals and event references.
func isEventConst(e query.Expr) bool {
	empty := query.NewEnv(nil, nil)
	return empty.IsConstWrt(e)
}

// costStep fills s.estCost and s.estRows (cumulative after the step).
func costStep(s *step, conjuncts []query.Expr, known map[string]bool,
	bound, constEnv *query.Env, cat Catalog, outRows float64) {

	extent := float64(defaultExtent)
	if cat != nil {
		extent = math.Max(1, float64(cat.ExtentEstimate(s.from.Class)))
	}
	var perOuter, cost float64
	switch s.access {
	case accessPin:
		perOuter = 1
		cost = outRows * (1 + fetchCost)
	case accessIndex:
		k := indexRows(s, constEnv, cat, extent)
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
		if usesVar(c, s.from.Var, known) && checkableAfter(c, s.from.Var, bound, known) {
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
func indexRows(s *step, constEnv *query.Env, cat Catalog, extent float64) float64 {
	eq := s.lo != nil && s.hi != nil
	if s.param || cat == nil {
		if eq {
			return math.Max(1, extent/64)
		}
		return math.Max(1, extent/4)
	}
	// Bounds are literal/event-only: evaluate and count for real.
	var loV, hiV *datum.Value
	if s.lo != nil {
		v, err := constEnv.Eval(s.lo)
		if err != nil {
			return 1 // missing event arg: the residual rejects everything
		}
		loV = &v
	}
	if s.hi != nil {
		v, err := constEnv.Eval(s.hi)
		if err != nil {
			return 1
		}
		hiV = &v
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
func assignResiduals(p *Plan, conjuncts []query.Expr, known map[string]bool) {
	boundAt := map[string]int{}
	for i, s := range p.steps {
		boundAt[s.from.Var] = i
	}
	for _, c := range conjuncts {
		at := 0
		for v := range varsOf(c, known) {
			if i, ok := boundAt[v]; ok && i > at {
				at = i
			}
		}
		if len(p.steps) > 0 {
			p.steps[at].residual = append(p.steps[at].residual, c)
		}
	}
}

// varsOf collects the known range variables referenced by e.
func varsOf(e query.Expr, known map[string]bool) map[string]bool {
	out := map[string]bool{}
	var walk func(query.Expr)
	walk = func(e query.Expr) {
		switch v := e.(type) {
		case *query.VarRef:
			if known[v.Name] {
				out[v.Name] = true
			}
		case *query.Path:
			if known[v.Var] {
				out[v.Var] = true
			}
		case *query.Binary:
			walk(v.L)
			walk(v.R)
		case *query.Unary:
			walk(v.X)
		case *query.Call:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

func usesVar(e query.Expr, name string, known map[string]bool) bool {
	return varsOf(e, known)[name]
}

// checkableAfter reports whether conjunct c becomes fully evaluable
// once name binds on top of the current bound set.
func checkableAfter(c query.Expr, name string, bound *query.Env, known map[string]bool) bool {
	for v := range varsOf(c, known) {
		if v != name && !bound.Bound(v) {
			return false
		}
	}
	return true
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
