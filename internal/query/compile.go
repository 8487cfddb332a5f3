package query

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/datum"
)

// This file is the expression engine everything but the oracle runs: an
// Expr compiles once into a closure over a context C, and evaluating it
// is the closure call — no AST walk, no environment map, no allocation.
// One compiler serves four contexts, which differ only in how the
// leaves (range variables, paths, event arguments, aggregate calls)
// resolve: a Frame for plans (a range variable is a slot of the join
// tuple, the event arguments the slot after them), the signal's
// arguments for guards, actionCtx for rule actions (named bindings,
// dereferenced through the reader), and an aggregate's value for the
// expression around it.
//
// A closure returns ErrNoValue itself — never wrapped, so callers test
// it with == — for a missing attribute, binding or argument, and any
// other error for a failed operator. The semantics are the tree-walk
// evaluator's (eval.go), which stays behind Eval as the reference the
// differential tests hold every compiled form against; the two share
// the operator kernels (cmp.apply, arithValues, unaryValue, scalarCall,
// truth, AggState) and nothing else.

// Binding is an object bound to a range variable: the reader's row,
// shared and immutable.
type Binding struct {
	OID datum.OID
	Row datum.Row
}

// Frame is one join tuple: a Binding per FROM clause, by position.
type Frame []Binding

type (
	evalFn[C any] func(C) (datum.Value, error)
	predFn[C any] func(C) (bool, error)
)

// ValueFunc and PredFunc are expressions compiled over frames. A
// PredFunc has a predicate's reading of missing and null: false.
type (
	ValueFunc = func(Frame) (datum.Value, error)
	PredFunc  = func(Frame) (bool, error)
)

// node is a compiled subexpression; konst marks one that reads nothing
// from the context, which its parent may evaluate at compile time.
type node[C any] struct {
	fn    evalFn[C]
	konst bool
}

func constant[C any](v datum.Value, err error) node[C] {
	return node[C]{fn: func(C) (datum.Value, error) { return v, err }, konst: true}
}

// fold wraps fn, evaluating it now when its operands were constant. A
// constant error is kept: it surfaces only if the expression is
// evaluated, as in the tree-walk.
func fold[C any](fn evalFn[C], konst bool) node[C] {
	if konst {
		var none C
		return constant[C](fn(none))
	}
	return node[C]{fn: fn}
}

func foldPred[C any](fn predFn[C], konst bool) (predFn[C], bool) {
	if konst {
		var none C
		b, err := fn(none)
		return func(C) (bool, error) { return b, err }, true
	}
	return fn, false
}

type compiler[C any] struct {
	// leaf compiles what depends on the context: *VarRef, *Path,
	// *EventRef and aggregate *Calls.
	leaf func(Expr) node[C]
	// fuse, if set, may compile a comparison in one closure that reads
	// its operands itself; nil means the generic form.
	fuse func(b *Binary, l, r node[C]) predFn[C]
}

func (c *compiler[C]) value(x Expr) node[C] {
	switch v := x.(type) {
	case *Literal:
		return constant[C](v.Val, nil)
	case *VarRef, *Path, *EventRef:
		return c.leaf(x)
	case *Unary:
		xn, op := c.value(v.X), v.Op
		return fold(func(ctx C) (datum.Value, error) {
			xv, err := xn.fn(ctx)
			if err != nil {
				return datum.Null(), err
			}
			return unaryValue(op, xv)
		}, xn.konst)
	case *Binary:
		if v.Op == OpAnd || v.Op == OpOr || isComparison(v.Op) {
			p, konst := c.pred(x)
			return fold(func(ctx C) (datum.Value, error) {
				b, err := p(ctx)
				if err != nil {
					return datum.Null(), err
				}
				return datum.Bool(b), nil
			}, konst)
		}
		l, r, op := c.value(v.L), c.value(v.R), v.Op
		return fold(func(ctx C) (datum.Value, error) {
			lv, lerr := l.fn(ctx)
			if lerr != nil && lerr != ErrNoValue {
				return datum.Null(), lerr
			}
			rv, rerr := r.fn(ctx)
			if rerr != nil && rerr != ErrNoValue {
				return datum.Null(), rerr
			}
			if lerr != nil || rerr != nil {
				return datum.Null(), ErrNoValue
			}
			return arithValues(op, lv, rv)
		}, l.konst && r.konst)
	case *Call:
		if v.IsAggregate() {
			return c.leaf(v)
		}
		if len(v.Args) != 1 {
			return constant[C](datum.Null(), fmt.Errorf("query: %s takes one argument", v.Fn))
		}
		a, fn := c.value(v.Args[0]), v.Fn
		return fold(func(ctx C) (datum.Value, error) {
			av, err := a.fn(ctx)
			if err != nil {
				return datum.Null(), err
			}
			return scalarCall(fn, av)
		}, a.konst)
	default:
		return constant[C](datum.Null(), fmt.Errorf("query: cannot evaluate %T", x))
	}
}

// pred compiles x as a predicate (the tree-walk's evalBool: missing and
// null are false) and reports whether it is constant.
func (c *compiler[C]) pred(x Expr) (predFn[C], bool) {
	b, _ := x.(*Binary)
	switch {
	case b != nil && (b.Op == OpAnd || b.Op == OpOr):
		l, lk := c.pred(b.L)
		r, rk := c.pred(b.R)
		decides := b.Op == OpOr // the left value that ends the evaluation
		return foldPred(func(ctx C) (bool, error) {
			if lv, err := l(ctx); err != nil || lv == decides {
				return lv, err
			}
			return r(ctx)
		}, lk && rk)
	case b != nil && isComparison(b.Op):
		l, r := c.value(b.L), c.value(b.R)
		if c.fuse != nil {
			if p := c.fuse(b, l, r); p != nil {
				return p, false
			}
		}
		k := cmpOf(b.Op)
		return foldPred(func(ctx C) (bool, error) {
			lv, lerr := l.fn(ctx)
			if lerr != nil && lerr != ErrNoValue {
				return false, lerr
			}
			rv, rerr := r.fn(ctx)
			if rerr != nil && rerr != ErrNoValue {
				return false, rerr
			}
			if lerr != nil || rerr != nil || lv.IsNull() || rv.IsNull() {
				return k.unknown(lerr != nil, rerr != nil), nil
			}
			return k.apply(lv, rv)
		}, l.konst && r.konst)
	}
	n := c.value(x)
	return foldPred(func(ctx C) (bool, error) {
		ok, err := truth(n.fn(ctx))
		if err == ErrNoValue {
			err = nil
		}
		return ok, err
	}, n.konst)
}

// rowAggregate is an aggregate call where a row's value is wanted.
func rowAggregate[C any](call *Call) node[C] {
	return constant[C](datum.Null(), fmt.Errorf("query: aggregate %s evaluated in row context", call.Fn))
}

// --- frames: plans ---

// FrameCompiler compiles a query's expressions over its join tuples.
type FrameCompiler struct {
	c      compiler[Frame]
	events []string // the event arguments compiled so far, distinct
}

// NewFrameCompiler returns a compiler for frames whose slot i binds
// vars[i] and whose slot len(vars) the event arguments, by name; a
// variable not in vars is unbound, hence missing. A path var.attr (or
// event.x) resolves here to its slot and attribute id, so reading it
// from a row is two indexed loads (datum.Row.At), whatever the row's
// shape: nothing compiled depends on a class or on one execution.
func NewFrameCompiler(vars []string) *FrameCompiler {
	fc := &FrameCompiler{}
	leaf := func(x Expr) node[Frame] {
		switch v := x.(type) {
		case *VarRef:
			if slot := slices.Index(vars, v.Name); slot >= 0 {
				return node[Frame]{fn: func(f Frame) (datum.Value, error) { return datum.ID(f[slot].OID), nil }}
			}
		case *Path, *EventRef:
			if slot, attr, ok := fc.slotOf(vars, x); ok {
				return node[Frame]{fn: func(f Frame) (datum.Value, error) {
					if val, ok := f[slot].Row.At(attr); ok {
						return val, nil
					}
					return datum.Null(), ErrNoValue
				}}
			}
		case *Call:
			return rowAggregate[Frame](v)
		}
		return constant[Frame](datum.Null(), ErrNoValue)
	}
	fc.c = compiler[Frame]{leaf: leaf, fuse: fc.fuse(vars)}
	return fc
}

// slotOf resolves a path or event reference to its slot and attribute.
func (fc *FrameCompiler) slotOf(vars []string, x Expr) (slot int, attr datum.Attr, ok bool) {
	switch v := x.(type) {
	case *Path:
		slot = slices.Index(vars, v.Var)
		return slot, datum.AttrOf(v.Attr), slot >= 0
	case *EventRef:
		if !slices.Contains(fc.events, v.Name) {
			fc.events = append(fc.events, v.Name)
		}
		return len(vars), datum.AttrOf(v.Name), true
	}
	return 0, 0, false
}

// Value compiles x; the closure yields ErrNoValue for a missing value.
func (fc *FrameCompiler) Value(x Expr) ValueFunc { return fc.c.value(x).fn }

// Pred compiles x as a predicate.
func (fc *FrameCompiler) Pred(x Expr) PredFunc {
	p, _ := fc.c.pred(x)
	return p
}

// Events returns the event arguments everything compiled so far reads.
func (fc *FrameCompiler) Events() []string { return fc.events }

// fuse compiles the comparisons a scan spends its time in — path (or
// event argument) against constant, path against path — as one closure
// that looks the attributes up itself rather than calling two leaves.
func (fc *FrameCompiler) fuse(vars []string) func(*Binary, node[Frame], node[Frame]) predFn[Frame] {
	return func(b *Binary, l, r node[Frame]) predFn[Frame] {
		ls, la, lok := fc.slotOf(vars, b.L)
		rs, ra, rok := fc.slotOf(vars, b.R)
		k := cmpOf(b.Op)
		if lok && rok {
			return func(f Frame) (bool, error) {
				lv, lhas := f[ls].Row.At(la)
				rv, rhas := f[rs].Row.At(ra)
				if !lhas || !rhas || lv.IsNull() || rv.IsNull() {
					return k.unknown(!lhas, !rhas), nil
				}
				return k.apply(lv, rv)
			}
		}
		if rok && l.konst { // constant op path: mirror it
			ls, la, lok, r, k = rs, ra, true, l, cmpOf(FlipOp(b.Op))
		}
		if !lok || !r.konst {
			return nil
		}
		kv, err := r.fn(nil)
		if err != nil || kv.IsNull() {
			return nil // a missing, null or failing constant: the generic form decides
		}
		return func(f Frame) (bool, error) {
			lv, has := f[ls].Row.At(la)
			if !has || lv.IsNull() {
				return k.unknown(!has, false), nil
			}
			return k.apply(lv, kv)
		}
	}
}

// Aggregate is one select item of an aggregate query, compiled: the
// call's argument over frames, the expression around it over its value.
type Aggregate struct {
	call   *Call     // nil: the item holds no aggregate
	arg    ValueFunc // nil for f(*)
	finish evalFn[datum.Value]
}

// Aggregate compiles select item x. Items without an aggregate
// accumulate nothing and fail at Finish, as in the tree-walk.
func (fc *FrameCompiler) Aggregate(x Expr) *Aggregate {
	a := &Aggregate{call: findAggregate(x)}
	if a.call == nil {
		return a
	}
	switch {
	case a.call.Star:
	case len(a.call.Args) != 1:
		a.arg = constant[Frame](datum.Null(), fmt.Errorf("query: %s takes one argument", a.call.Fn)).fn
	default:
		a.arg = fc.Value(a.call.Args[0])
	}
	// Around the aggregate nothing else has a value: the tree-walk
	// finishes with no bindings and no event arguments.
	around := compiler[datum.Value]{leaf: func(x Expr) node[datum.Value] {
		if call, ok := x.(*Call); ok {
			if call == a.call {
				return node[datum.Value]{fn: func(v datum.Value) (datum.Value, error) { return v, nil }}
			}
			return rowAggregate[datum.Value](call)
		}
		return constant[datum.Value](datum.Null(), ErrNoValue)
	}}
	a.finish = around.value(x).fn
	return a
}

// Accumulate feeds frame f into st. Null and missing arguments do not
// participate.
func (a *Aggregate) Accumulate(st *AggState, f Frame) error {
	switch {
	case a.call == nil:
		return nil
	case a.arg == nil:
		st.count++
		return nil
	}
	v, err := a.arg(f)
	if err == nil {
		st.add(v)
	} else if err != ErrNoValue {
		return err
	}
	return nil
}

// Merge folds src into dst — partial states of this aggregate over
// disjoint sets of rows, each accumulated in any order — and reports
// whether the result is bit for bit what accumulating all those rows in
// emission order gives. It is for count, and for sum, min and max while
// every value is an int: wraparound addition commutes, and equal ints
// are identical, so which one a tie keeps cannot show. A float sum
// depends on the order of its additions, avg always reads one, and
// min/max over other kinds keep the earliest of values that compare
// equal or cannot be compared: then Merge reports false, dst is
// unspecified, and the caller accumulates in emission order instead.
func (a *Aggregate) Merge(dst, src *AggState) bool {
	switch {
	case a.call == nil || src.count == 0:
		return true
	case a.call.Fn == "count":
	case a.call.Fn != "sum" && a.call.Fn != "min" && a.call.Fn != "max" || !src.isInt:
		return false
	}
	if dst.count == 0 {
		*dst = *src
		return true
	}
	dst.count, dst.sumI = dst.count+src.count, dst.sumI+src.sumI
	if dst.isInt = dst.isInt && src.isInt; dst.isInt {
		if src.min.AsInt() < dst.min.AsInt() {
			dst.min = src.min
		}
		if src.max.AsInt() > dst.max.AsInt() {
			dst.max = src.max
		}
	}
	return true
}

// Finish computes the item's final value from st.
func (a *Aggregate) Finish(st *AggState) (datum.Value, error) {
	if a.call == nil {
		return datum.Null(), errors.New("query: aggregate select item without aggregate")
	}
	v, err := st.result(a.call.Fn)
	if err != nil {
		return datum.Null(), err
	}
	return a.finish(v)
}

// --- named bindings: rule actions ---

type actionCtx struct {
	reader       Reader
	vars, events map[string]datum.Value
}

// ActionExpr is a standalone expression (from ParseExpr) compiled for
// evaluation outside a query: rule actions compute attribute values and
// request arguments from the event signal and the condition's rows.
type ActionExpr struct{ fn evalFn[actionCtx] }

// CompileExpr compiles x: bare variable names resolve through the
// bindings, event.x through the event arguments, and a path var.attr
// dereferences the binding of var as an OID through the reader.
func CompileExpr(x Expr) ActionExpr {
	c := compiler[actionCtx]{leaf: func(x Expr) node[actionCtx] {
		switch v := x.(type) {
		case *VarRef:
			name := v.Name
			return node[actionCtx]{fn: func(ctx actionCtx) (datum.Value, error) {
				return lookup(ctx.vars, name)
			}}
		case *EventRef:
			name := v.Name
			return node[actionCtx]{fn: func(ctx actionCtx) (datum.Value, error) {
				return lookup(ctx.events, name)
			}}
		case *Path:
			attr := datum.AttrOf(v.Attr)
			return node[actionCtx]{fn: func(ctx actionCtx) (datum.Value, error) {
				ref, err := lookup(ctx.vars, v.Var)
				if err != nil {
					return ref, err
				}
				if ref.Kind() != datum.KindOID {
					return datum.Null(), fmt.Errorf("query: %s is not an object (kind %s)", v.Var, ref.Kind())
				}
				if ctx.reader == nil {
					return datum.Null(), fmt.Errorf("query: cannot dereference %s without a reader", v)
				}
				if _, row, ok := ctx.reader.Fetch(ref.AsOID()); ok {
					if val, ok := row.At(attr); ok {
						return val, nil
					}
				}
				return datum.Null(), ErrNoValue
			}}
		default:
			return rowAggregate[actionCtx](x.(*Call))
		}
	}}
	return ActionExpr{c.value(x).fn}
}

func lookup(m map[string]datum.Value, name string) (datum.Value, error) {
	if v, ok := m[name]; ok {
		return v, nil
	}
	return datum.Null(), ErrNoValue
}

// Eval evaluates the expression; reader may be nil when nothing is
// dereferenced. A missing binding, object or attribute is null rather
// than a failed action; the store rejects nulls where not allowed.
func (a ActionExpr) Eval(reader Reader, vars, eventArgs map[string]datum.Value) (datum.Value, error) {
	v, err := a.fn(actionCtx{reader, vars, eventArgs})
	if err == ErrNoValue {
		return datum.Null(), nil
	}
	return v, err
}
