package query

import "repro/internal/datum"

// This file exports the tree-walk evaluator's expression and
// aggregate semantics for the physical executor in internal/plan.
// The planner's plan-invariance guarantee ("every admissible plan
// returns exactly what Eval returns") depends on both engines sharing
// one implementation of expression evaluation, null/missing-value
// comparison rules, and aggregate accumulation — so plan does not
// reimplement any of it; it drives the code below.

// Env is an expression-evaluation environment: a set of range-variable
// bindings plus the event arguments, evaluating expressions with
// exactly the tree-walk evaluator's semantics.
type Env struct {
	e evaluator
}

// NewEnv returns an environment with no variables bound. reader backs
// sub-fetches (none today, but kept symmetric with Eval); eventArgs
// bind event.<name> references and may be nil.
func NewEnv(r Reader, eventArgs map[string]datum.Value) *Env {
	return &Env{e: evaluator{reader: r, event: eventArgs, env: map[string]object{}}}
}

// Bind binds a range variable to an object.
func (v *Env) Bind(name string, oid datum.OID, attrs map[string]datum.Value) {
	v.e.env[name] = object{oid: oid, attrs: attrs}
}

// Unbind removes a range-variable binding.
func (v *Env) Unbind(name string) { delete(v.e.env, name) }

// Bound reports whether name is currently bound.
func (v *Env) Bound(name string) bool {
	_, ok := v.e.env[name]
	return ok
}

// Eval evaluates an expression against the current bindings. A
// missing attribute or event argument yields an error wrapping
// ErrNoValue.
func (v *Env) Eval(x Expr) (datum.Value, error) { return v.e.eval(x) }

// EvalBool evaluates a predicate: missing values and nulls are
// unknown, which is false.
func (v *Env) EvalBool(x Expr) (bool, error) { return v.e.evalBool(x) }

// IsConstWrt reports whether x is evaluable from the current bindings
// alone — it references no unbound range variable.
func (v *Env) IsConstWrt(x Expr) bool { return isConstWrt(x, v.e.env) }

// SplitConjuncts flattens the top-level ANDs of a WHERE clause (nil
// yields nil).
func SplitConjuncts(e Expr) []Expr { return splitConjuncts(e) }

// HasAggregate reports whether the expression contains an aggregate
// call. A query whose first select item has an aggregate runs in
// aggregate mode: one output row accumulated over the join.
func HasAggregate(e Expr) bool { return hasAggregate(e) }

// ReferencesAny reports whether the expression references any of the
// given range variables.
func ReferencesAny(e Expr, vars map[string]bool) bool { return referencesAny(e, vars) }

// FlipOp mirrors a comparison operator for swapped operands
// (a < b == b > a); non-comparison ops are returned unchanged.
func FlipOp(op BinOp) BinOp { return flipOp(op) }

// OrderAndLimit applies q's ORDER BY — a stable sort of res.Rows on
// sortKeys, the ORDER BY expressions evaluated per row in emission
// order — and then its LIMIT, exactly as Eval does.
func OrderAndLimit(q *Query, res *Result, sortKeys [][]datum.Value) {
	orderAndLimit(q, res, sortKeys)
}

// AggState accumulates one select item's aggregate over emitted rows.
// Accumulation order matters for float sums: the executor feeds rows
// in the tree-walk emission order so results are bit-identical.
type AggState struct {
	st aggState
}

// Accumulate feeds the current bindings' row into the aggregate
// inside expr (a no-op when expr has none). Null and missing values
// do not participate, matching the tree-walk evaluator.
func (v *Env) Accumulate(st *AggState, expr Expr) error {
	return v.e.accumulate(&st.st, expr)
}

// FinishAggregate computes the final value of an aggregate select
// item, evaluating any surrounding expression around the aggregate.
func FinishAggregate(st *AggState, expr Expr) (datum.Value, error) {
	return finishAggregate(&st.st, expr)
}

// MergeAggState folds src — the partial aggregate of a later,
// contiguous chunk of the emission sequence — into dst, reporting
// false when an exact merge is impossible (float sums and averages
// accumulate in emission order; incomparable min/max candidates are
// order-sensitive). On false, dst is unspecified and the caller must
// re-accumulate serially to stay bit-identical to the tree-walk.
// Parallel partial aggregation in the physical executor is built on
// this: count, min/max, and integer sums merge exactly and run
// chunk-parallel; everything else degrades to the serial tail.
func MergeAggState(dst, src *AggState, expr Expr) bool {
	return mergeAggState(&dst.st, &src.st, expr)
}
