package query

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/datum"
)

// Reader is the evaluator's view of the database, bound to a
// transaction by the Object Manager. Implementations must expose a
// transaction-consistent snapshot (own writes visible, ancestors'
// writes visible, others' invisible).
//
// The rows ScanClass and Fetch hand out are the stored versions
// themselves, shared with every concurrent reader: the evaluator (and
// any other caller) may keep them for the reader's lifetime. Rows are
// immutable, so nobody can write them.
type Reader interface {
	// ScanClass visits every live object of the class in OID order,
	// stopping as soon as fn returns false.
	ScanClass(class string, fn func(oid datum.OID, row datum.Row) bool) error
	// LookupRange returns candidate OIDs with lo <= attrs[attr] <= hi
	// (bounds optional). ok is false when no index exists on
	// class.attr; candidates may include false positives but must not
	// miss any visible match.
	LookupRange(class, attr string, lo, hi *datum.Value, loInc, hiInc bool) (oids []datum.OID, ok bool)
	// Fetch returns a live object's class and attributes by OID.
	Fetch(oid datum.OID) (class string, row datum.Row, ok bool)
}

// Result is a query result: named columns and rows of values.
type Result struct {
	Columns []string
	Rows    [][]datum.Value
}

// Equal reports whether r and o have the same columns and the same
// rows, value by value under datum.Identical.
func (r *Result) Equal(o *Result) bool {
	if r == nil || o == nil {
		return r == o
	}
	if !slices.Equal(r.Columns, o.Columns) || len(r.Rows) != len(o.Rows) {
		return false
	}
	for i, row := range r.Rows {
		if !slices.EqualFunc(row, o.Rows[i], datum.Identical) {
			return false
		}
	}
	return true
}

// Empty reports whether the result has no rows. The paper's condition
// semantics: a condition is satisfied iff all its queries return
// non-empty results.
func (r *Result) Empty() bool { return len(r.Rows) == 0 }

// RowBindings returns row i as a name->value map for action
// parameter binding.
func (r *Result) RowBindings(i int) map[string]datum.Value {
	m := make(map[string]datum.Value, len(r.Columns))
	for c, name := range r.Columns {
		m[name] = r.Rows[i][c]
	}
	return m
}

// ErrNoValue marks evaluation against a missing attribute, binding or
// event argument; comparisons treat it as null. The tree-walk wraps it
// with what was missing; compiled expressions return it as is.
var ErrNoValue = errors.New("query: no value")

// Eval runs the query against r with the given event-argument
// bindings (may be nil).
func Eval(q *Query, r Reader, eventArgs map[string]datum.Value) (*Result, error) {
	e := &evaluator{reader: r, event: eventArgs}
	return e.run(q)
}

type object struct {
	oid datum.OID
	row datum.Row
}

type evaluator struct {
	reader Reader
	event  map[string]datum.Value
	env    map[string]object
}

func (e *evaluator) run(q *Query) (*Result, error) {
	res := &Result{}
	for _, s := range q.Select {
		res.Columns = append(res.Columns, s.Name())
	}

	conjuncts := SplitConjuncts(q.Where)
	e.env = make(map[string]object, len(q.From))

	aggMode := len(q.Select) > 0 && HasAggregate(q.Select[0].Expr)
	aggs := make([]AggState, len(q.Select))

	var sortKeys [][]datum.Value
	emit := func() error {
		if aggMode {
			for i, s := range q.Select {
				if err := e.accumulate(&aggs[i], s.Expr); err != nil {
					return err
				}
			}
			return nil
		}
		row := make([]datum.Value, len(q.Select))
		for i, s := range q.Select {
			v, err := e.eval(s.Expr)
			if err != nil && !errors.Is(err, ErrNoValue) {
				return err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		if len(q.OrderBy) > 0 {
			keys := make([]datum.Value, len(q.OrderBy))
			for i, o := range q.OrderBy {
				v, err := e.eval(o.Expr)
				if err != nil && !errors.Is(err, ErrNoValue) {
					return err
				}
				keys[i] = v
			}
			sortKeys = append(sortKeys, keys)
		}
		return nil
	}

	if err := e.loop(q.From, conjuncts, emit); err != nil {
		return nil, err
	}

	if aggMode {
		row := make([]datum.Value, len(q.Select))
		for i, s := range q.Select {
			v, err := finishAggregate(&aggs[i], s.Expr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
	}
	OrderAndLimit(q, res, sortKeys)
	return res, nil
}

// OrderAndLimit is the tail of every execution: ORDER BY as a stable
// sort of res.Rows on sortKeys — the ORDER BY expressions evaluated per
// row in emission order (datum.Less is a total order, so heterogeneous
// keys still sort deterministically) — then LIMIT.
func OrderAndLimit(q *Query, res *Result, sortKeys [][]datum.Value) {
	if len(q.OrderBy) > 0 {
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
			for c, o := range q.OrderBy {
				if datum.Equal(ka[c], kb[c]) {
					continue
				}
				less := datum.Less(ka[c], kb[c])
				if o.Desc {
					return !less
				}
				return less
			}
			return false
		})
		sorted := make([][]datum.Value, len(res.Rows))
		for i, j := range idx {
			sorted[i] = res.Rows[j]
		}
		res.Rows = sorted
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
}

// loop performs the nested-loop join over the remaining FROM clauses,
// applying each conjunct as soon as all its variables are bound.
func (e *evaluator) loop(from []FromClause, conjuncts []Expr, emit func() error) error {
	if len(from) == 0 {
		return emit()
	}
	f := from[0]
	rest := from[1:]

	// Conjuncts fully evaluable once f.Var is bound (and no later
	// vars are referenced) filter here; the rest pass down.
	laterVars := map[string]bool{}
	for _, lf := range rest {
		laterVars[lf.Var] = true
	}
	var here, below []Expr
	for _, c := range conjuncts {
		if referencesAny(c, laterVars) {
			below = append(below, c)
		} else {
			here = append(here, c)
		}
	}

	visit := func(oid datum.OID, row datum.Row) (bool, error) {
		e.env[f.Var] = object{oid: oid, row: row}
		for _, c := range here {
			ok, err := e.evalBool(c)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil // next candidate
			}
		}
		if err := e.loop(rest, below, emit); err != nil {
			return false, err
		}
		return true, nil
	}

	// Try an index probe for a sargable conjunct on f.Var.
	if oids, used, err := e.indexProbe(f, here); err != nil {
		return err
	} else if used {
		for _, oid := range oids {
			cls, row, ok := e.reader.Fetch(oid)
			if !ok || cls != f.Class {
				continue
			}
			cont, err := visit(oid, row)
			if err != nil {
				return err
			}
			if !cont {
				break
			}
		}
		delete(e.env, f.Var)
		return nil
	}

	var scanErr error
	err := e.reader.ScanClass(f.Class, func(oid datum.OID, row datum.Row) bool {
		cont, err := visit(oid, row)
		if err != nil {
			scanErr = err
			return false
		}
		return cont
	})
	delete(e.env, f.Var)
	if scanErr != nil {
		return scanErr
	}
	return err
}

// indexProbe looks for a conjunct of the form f.Var.attr OP constant
// (literal or event reference) with an available index and returns
// the candidate OIDs. The conjunct is NOT removed: it is re-checked
// as a residual, so false positives from the candidate set are
// harmless. The oracle keeps this one access path because the
// benchmark checks every query against it before timing starts:
// without it that check takes 5.8 s instead of 114 ms.
func (e *evaluator) indexProbe(f FromClause, conjuncts []Expr) ([]datum.OID, bool, error) {
	for _, c := range conjuncts {
		b, ok := c.(*Binary)
		if !ok {
			continue
		}
		var path *Path
		var constExpr Expr
		op := b.Op
		if p, ok := b.L.(*Path); ok && p.Var == f.Var && isConstWrt(b.R, e.env) {
			path, constExpr = p, b.R
		} else if p, ok := b.R.(*Path); ok && p.Var == f.Var && isConstWrt(b.L, e.env) {
			path, constExpr = p, b.L
			op = FlipOp(op)
		} else {
			continue
		}
		var lo, hi *datum.Value
		loInc, hiInc := true, true
		v, err := e.eval(constExpr)
		if err != nil {
			if errors.Is(err, ErrNoValue) {
				continue
			}
			return nil, false, err
		}
		switch op {
		case OpEq:
			lo, hi = &v, &v
		case OpLt:
			hi, hiInc = &v, false
		case OpLe:
			hi = &v
		case OpGt:
			lo, loInc = &v, false
		case OpGe:
			lo = &v
		default:
			continue
		}
		if oids, ok := e.reader.LookupRange(f.Class, path.Attr, lo, hi, loInc, hiInc); ok {
			return oids, true, nil
		}
	}
	return nil, false, nil
}

// isConstWrt reports whether expr is evaluable without reference to
// any still-unbound range variable: literals, event refs, and
// already-bound variables qualify.
func isConstWrt(e Expr, bound map[string]object) bool {
	switch v := e.(type) {
	case *Literal, *EventRef:
		return true
	case *VarRef:
		_, ok := bound[v.Name]
		return ok
	case *Path:
		_, ok := bound[v.Var]
		return ok
	case *Binary:
		return isConstWrt(v.L, bound) && isConstWrt(v.R, bound)
	case *Unary:
		return isConstWrt(v.X, bound)
	case *Call:
		for _, a := range v.Args {
			if !isConstWrt(a, bound) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// FlipOp mirrors a comparison operator for swapped operands
// (a < b == b > a); other operators are returned unchanged.
func FlipOp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// SplitConjuncts flattens the top-level ANDs of a WHERE clause (nil
// yields nil).
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

func referencesAny(e Expr, vars map[string]bool) bool {
	switch v := e.(type) {
	case *VarRef:
		return vars[v.Name]
	case *Path:
		return vars[v.Var]
	case *Binary:
		return referencesAny(v.L, vars) || referencesAny(v.R, vars)
	case *Unary:
		return referencesAny(v.X, vars)
	case *Call:
		for _, a := range v.Args {
			if referencesAny(a, vars) {
				return true
			}
		}
	}
	return false
}

// --- expression evaluation ---

func (e *evaluator) evalBool(x Expr) (bool, error) {
	ok, err := truth(e.eval(x))
	if errors.Is(err, ErrNoValue) {
		return false, nil // missing value: predicate is unknown = false
	}
	return ok, err
}

// truth is a predicate's reading of a value: null is as unknown as a
// missing value (ErrNoValue), anything else must be a bool.
func truth(v datum.Value, err error) (bool, error) {
	switch {
	case err != nil:
		return false, err
	case v.IsNull():
		return false, ErrNoValue
	case v.Kind() != datum.KindBool:
		return false, fmt.Errorf("query: predicate yielded %s, want bool", v.Kind())
	}
	return v.AsBool(), nil
}

func (e *evaluator) eval(x Expr) (datum.Value, error) {
	switch v := x.(type) {
	case *Literal:
		return v.Val, nil
	case *VarRef:
		obj, ok := e.env[v.Name]
		if !ok {
			return datum.Null(), fmt.Errorf("%w: variable %q unbound", ErrNoValue, v.Name)
		}
		return datum.ID(obj.oid), nil
	case *Path:
		obj, ok := e.env[v.Var]
		if !ok {
			return datum.Null(), fmt.Errorf("%w: variable %q unbound", ErrNoValue, v.Var)
		}
		// By name, where compiled expressions look attributes up by id.
		val, ok := obj.row.Get(v.Attr)
		if !ok {
			return datum.Null(), fmt.Errorf("%w: attribute %q", ErrNoValue, v.Attr)
		}
		return val, nil
	case *EventRef:
		val, ok := e.event[v.Name]
		if !ok {
			return datum.Null(), fmt.Errorf("%w: event argument %q", ErrNoValue, v.Name)
		}
		return val, nil
	case *Unary:
		return e.evalUnary(v)
	case *Binary:
		return e.evalBinary(v)
	case *Call:
		return e.evalCall(v)
	default:
		return datum.Null(), fmt.Errorf("query: cannot evaluate %T", x)
	}
}

func (e *evaluator) evalUnary(u *Unary) (datum.Value, error) {
	x, err := e.eval(u.X)
	if err != nil {
		return datum.Null(), err
	}
	return unaryValue(u.Op, x)
}

// unaryValue applies a unary operator to a present value.
func unaryValue(op UnOp, x datum.Value) (datum.Value, error) {
	switch op {
	case OpNot:
		if x.Kind() != datum.KindBool {
			return datum.Null(), fmt.Errorf("query: not applied to %s", x.Kind())
		}
		return datum.Bool(!x.AsBool()), nil
	case OpNeg:
		switch x.Kind() {
		case datum.KindInt:
			return datum.Int(-x.AsInt()), nil
		case datum.KindFloat:
			return datum.Float(-x.AsFloat()), nil
		default:
			return datum.Null(), fmt.Errorf("query: negation of %s", x.Kind())
		}
	default:
		return datum.Null(), fmt.Errorf("query: unknown unary op %q", op)
	}
}

func (e *evaluator) evalBinary(b *Binary) (datum.Value, error) {
	// Short-circuit logic first: the left operand decides an `or` when
	// true, an `and` when false.
	if b.Op == OpAnd || b.Op == OpOr {
		ok, err := e.evalBool(b.L)
		if err == nil && ok != (b.Op == OpOr) {
			ok, err = e.evalBool(b.R)
		}
		return datum.Bool(ok), err
	}

	l, err := e.eval(b.L)
	if err != nil && !errors.Is(err, ErrNoValue) {
		return datum.Null(), err
	}
	lMissing := err != nil
	r, err := e.eval(b.R)
	if err != nil && !errors.Is(err, ErrNoValue) {
		return datum.Null(), err
	}
	rMissing := err != nil

	if isComparison(b.Op) {
		k := cmpOf(b.Op)
		if lMissing || rMissing || l.IsNull() || r.IsNull() {
			return datum.Bool(k.unknown(lMissing, rMissing)), nil
		}
		ok, err := k.apply(l, r)
		return datum.Bool(ok), err
	}
	if lMissing || rMissing {
		return datum.Null(), fmt.Errorf("%w: operand of %s", ErrNoValue, b.Op)
	}
	return arithValues(b.Op, l, r)
}

func isComparison(op BinOp) bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// cmp is a comparison operator, resolved once: its outcome for each
// result of datum.Compare.
type cmp struct {
	op  BinOp
	out [3]bool // indexed by datum.Compare's result + 1
}

func cmpOf(op BinOp) cmp {
	lt, eq, gt := op == OpLt || op == OpLe, op == OpEq || op == OpLe || op == OpGe, op == OpGt || op == OpGe
	if op == OpNe {
		lt, gt = true, true
	}
	return cmp{op: op, out: [3]bool{lt, eq, gt}}
}

// apply compares two present, non-null values. Incomparable kinds are
// unequal; ordering them is a hard error.
func (k *cmp) apply(l, r datum.Value) (bool, error) {
	c, err := datum.Compare(l, r)
	if err != nil {
		if k.op == OpEq || k.op == OpNe {
			return k.op == OpNe, nil
		}
		return false, fmt.Errorf("query: %v %s %v: %w", l, k.op, r, err)
	}
	return k.out[c+1], nil
}

// unknown is the outcome when an operand is missing or null: false,
// except inequality between a missing operand and one that is not.
func (k *cmp) unknown(lMissing, rMissing bool) bool {
	return k.op == OpNe && lMissing != rMissing
}

// arithValues applies an arithmetic operator (or string
// concatenation) to two present values.
func arithValues(op BinOp, l, r datum.Value) (datum.Value, error) {
	if op == OpAdd && l.Kind() == datum.KindString && r.Kind() == datum.KindString {
		return datum.Str(l.AsString() + r.AsString()), nil
	}
	return numericOp(l, r, op)
}

func numericOp(l, r datum.Value, op BinOp) (datum.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return datum.Null(), fmt.Errorf("query: %s applied to %s and %s", op, l.Kind(), r.Kind())
	}
	if l.Kind() == datum.KindInt && r.Kind() == datum.KindInt {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case OpAdd:
			return datum.Int(a + b), nil
		case OpSub:
			return datum.Int(a - b), nil
		case OpMul:
			return datum.Int(a * b), nil
		case OpDiv:
			if b == 0 {
				return datum.Null(), errors.New("query: integer division by zero")
			}
			return datum.Int(a / b), nil
		case OpMod:
			if b == 0 {
				return datum.Null(), errors.New("query: integer modulo by zero")
			}
			return datum.Int(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return datum.Float(a + b), nil
	case OpSub:
		return datum.Float(a - b), nil
	case OpMul:
		return datum.Float(a * b), nil
	case OpDiv:
		if b == 0 {
			return datum.Null(), errors.New("query: division by zero")
		}
		return datum.Float(a / b), nil
	case OpMod:
		return datum.Null(), errors.New("query: modulo needs integers")
	}
	return datum.Null(), fmt.Errorf("query: unknown numeric op %q", op)
}

func (e *evaluator) evalCall(c *Call) (datum.Value, error) {
	if c.IsAggregate() {
		return datum.Null(), fmt.Errorf("query: aggregate %s evaluated in row context", c.Fn)
	}
	if len(c.Args) != 1 {
		return datum.Null(), fmt.Errorf("query: %s takes one argument", c.Fn)
	}
	v, err := e.eval(c.Args[0])
	if err != nil {
		return datum.Null(), err
	}
	return scalarCall(c.Fn, v)
}

// scalarCall applies a one-argument builtin to a present value.
func scalarCall(fn string, v datum.Value) (datum.Value, error) {
	switch fn {
	case "abs":
		switch v.Kind() {
		case datum.KindInt:
			if v.AsInt() < 0 {
				return datum.Int(-v.AsInt()), nil
			}
			return v, nil
		case datum.KindFloat:
			if v.AsFloat() < 0 {
				return datum.Float(-v.AsFloat()), nil
			}
			return v, nil
		}
	case "lower", "upper":
		if v.Kind() != datum.KindString {
			break
		}
		if fn == "lower" {
			return datum.Str(strings.ToLower(v.AsString())), nil
		}
		return datum.Str(strings.ToUpper(v.AsString())), nil
	case "len":
		switch v.Kind() {
		case datum.KindList:
			return datum.Int(int64(len(v.AsList()))), nil
		case datum.KindString:
			return datum.Int(int64(len(v.AsString()))), nil
		}
	default:
		return datum.Null(), fmt.Errorf("query: unknown function %q", fn)
	}
	return datum.Null(), fmt.Errorf("query: %s of %s", fn, v.Kind())
}

// --- aggregates ---

// AggState accumulates one select item's aggregate over emitted rows.
// Accumulation order matters for float sums: plans feed rows in the
// tree-walk's emission order unless Aggregate.Merge proves it cannot show.
type AggState struct {
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   datum.Value
	max   datum.Value
	init  bool
}

// accumulate feeds one row into the aggregate inside expr.
func (e *evaluator) accumulate(st *AggState, expr Expr) error {
	call := findAggregate(expr)
	if call == nil {
		return nil
	}
	if call.Star {
		st.count++
		return nil
	}
	if len(call.Args) != 1 {
		return fmt.Errorf("query: %s takes one argument", call.Fn)
	}
	v, err := e.eval(call.Args[0])
	if err != nil {
		if errors.Is(err, ErrNoValue) {
			return nil // missing values don't participate
		}
		return err
	}
	st.add(v)
	return nil
}

// add accumulates one argument value; nulls don't participate.
func (st *AggState) add(v datum.Value) {
	if v.IsNull() {
		return
	}
	st.count++
	if !st.init {
		st.init = true
		st.isInt = v.Kind() == datum.KindInt
		st.min, st.max = v, v
	}
	if v.Kind() != datum.KindInt {
		st.isInt = false
	}
	if v.IsNumeric() {
		st.sum += v.AsFloat()
		st.sumI += v.AsInt()
	}
	if c, err := datum.Compare(v, st.min); err == nil && c < 0 {
		st.min = v
	}
	if c, err := datum.Compare(v, st.max); err == nil && c > 0 {
		st.max = v
	}
}

// result is the final value of aggregate fn over what st accumulated.
func (st *AggState) result(fn string) (datum.Value, error) {
	switch fn {
	case "count":
		return datum.Int(st.count), nil
	case "sum":
		switch {
		case st.count == 0:
			return datum.Int(0), nil
		case st.isInt:
			return datum.Int(st.sumI), nil
		}
		return datum.Float(st.sum), nil
	case "avg":
		if st.count == 0 {
			return datum.Null(), nil
		}
		return datum.Float(st.sum / float64(st.count)), nil
	case "min", "max":
		switch {
		case !st.init:
			return datum.Null(), nil
		case fn == "min":
			return st.min, nil
		}
		return st.max, nil
	}
	return datum.Null(), fmt.Errorf("query: unknown aggregate %q", fn)
}

func findAggregate(expr Expr) *Call {
	switch v := expr.(type) {
	case *Call:
		if v.IsAggregate() {
			return v
		}
		for _, a := range v.Args {
			if c := findAggregate(a); c != nil {
				return c
			}
		}
	case *Binary:
		if c := findAggregate(v.L); c != nil {
			return c
		}
		return findAggregate(v.R)
	case *Unary:
		return findAggregate(v.X)
	}
	return nil
}

// finishAggregate computes the final value of an aggregate select
// item. Expressions over an aggregate (e.g. count(*) + 1) are
// evaluated by substituting the aggregate's value.
func finishAggregate(st *AggState, expr Expr) (datum.Value, error) {
	call := findAggregate(expr)
	if call == nil {
		return datum.Null(), errors.New("query: aggregate select item without aggregate")
	}
	val, err := st.result(call.Fn)
	if err != nil {
		return datum.Null(), err
	}
	// Substitute and evaluate the surrounding expression, if any.
	if expr == Expr(call) {
		return val, nil
	}
	sub := substitute(expr, call, &Literal{Val: val})
	e := &evaluator{}
	return e.eval(sub)
}

// substitute replaces target with repl in a copy of expr.
func substitute(expr Expr, target *Call, repl Expr) Expr {
	switch v := expr.(type) {
	case *Call:
		if v == target {
			return repl
		}
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = substitute(a, target, repl)
		}
		return &Call{Fn: v.Fn, Args: args, Star: v.Star}
	case *Binary:
		return &Binary{Op: v.Op, L: substitute(v.L, target, repl), R: substitute(v.R, target, repl)}
	case *Unary:
		return &Unary{Op: v.Op, X: substitute(v.X, target, repl)}
	default:
		return expr
	}
}
