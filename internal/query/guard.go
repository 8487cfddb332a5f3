package query

import "repro/internal/datum"

// This file is the signal-time half of condition evaluation: the
// conjuncts of a WHERE clause that reference no range variable — only
// event.* arguments and literals — can be decided from a signal's
// bindings alone, before any transaction, lock or snapshot exists. The
// Rule Manager indexes them per event (internal/rule's dispatch table)
// so a signal schedules only the firings that can be satisfied.

// eventFunc is an event-only expression compiled to a closure chain.
// ok is false when the value is not definite on args: an event
// argument or literal the evaluation touched is missing or null, or an
// operator failed (type error, division by zero). When ok is true, v
// is exactly what the tree-walk evaluator computes for the expression
// under the same event arguments.
type eventFunc func(args map[string]datum.Value) (v datum.Value, ok bool)

// compileEventExpr compiles x into an eventFunc. It reports false when
// x is not event-only: it references a range variable or calls an
// aggregate.
func compileEventExpr(x Expr) (eventFunc, bool) {
	switch v := x.(type) {
	case *Literal:
		val := v.Val
		known := !val.IsNull()
		return func(map[string]datum.Value) (datum.Value, bool) { return val, known }, true
	case *EventRef:
		name := v.Name
		return func(args map[string]datum.Value) (datum.Value, bool) {
			val, ok := args[name]
			return val, ok && !val.IsNull()
		}, true
	case *Unary:
		xf, ok := compileEventExpr(v.X)
		if !ok {
			return nil, false
		}
		op := v.Op
		return func(args map[string]datum.Value) (datum.Value, bool) {
			xv, ok := xf(args)
			if !ok {
				return datum.Null(), false
			}
			out, err := unaryValue(op, xv)
			return out, err == nil
		}, true
	case *Binary:
		lf, ok := compileEventExpr(v.L)
		if !ok {
			return nil, false
		}
		rf, ok := compileEventExpr(v.R)
		if !ok {
			return nil, false
		}
		return compileEventBinary(v.Op, lf, rf), true
	case *Call:
		if v.IsAggregate() || len(v.Args) != 1 {
			return nil, false
		}
		af, ok := compileEventExpr(v.Args[0])
		if !ok {
			return nil, false
		}
		fn := v.Fn
		return func(args map[string]datum.Value) (datum.Value, bool) {
			av, ok := af(args)
			if !ok {
				return datum.Null(), false
			}
			out, err := scalarCall(fn, av)
			return out, err == nil
		}, true
	default: // *VarRef, *Path: a range variable
		return nil, false
	}
}

func compileEventBinary(op BinOp, lf, rf eventFunc) eventFunc {
	switch op {
	case OpAnd, OpOr:
		// The tree-walk's short circuit: the right operand is not
		// evaluated — so cannot make the value indefinite — when the
		// left one decides. stop is the left value that decides.
		stop := op == OpOr
		return func(args map[string]datum.Value) (datum.Value, bool) {
			l, ok := lf(args)
			if !ok || l.Kind() != datum.KindBool {
				return datum.Null(), false
			}
			if l.AsBool() == stop {
				return l, true
			}
			r, ok := rf(args)
			if !ok || r.Kind() != datum.KindBool {
				return datum.Null(), false
			}
			return r, true
		}
	}
	apply := arithValues
	if isComparison(op) {
		apply = compareValues
	}
	return func(args map[string]datum.Value) (datum.Value, bool) {
		l, ok := lf(args)
		if !ok {
			return datum.Null(), false
		}
		r, ok := rf(args)
		if !ok {
			return datum.Null(), false
		}
		out, err := apply(op, l, r)
		return out, err == nil
	}
}

// Guard is one event-only conjunct of a query's WHERE clause. When it
// is definitely false on a signal's bindings the query's result is
// empty whatever the database holds, so a condition containing the
// query cannot be satisfied by that signal.
type Guard struct {
	Expr Expr
	// Arg, Op and Lit describe the indexable shape
	// `event.<Arg> <Op> <literal>` (operands swapped into this
	// orientation, Op one of = < <= > >=, Lit not null). Arg is empty
	// for every other shape.
	Arg string
	Op  BinOp
	Lit datum.Value

	eval eventFunc
}

// Rejects reports whether the guard is definitely false on args. A
// missing or null argument and an evaluation error never reject: the
// conjunct stays in the query, which then decides with the tree-walk's
// own missing-value rules.
func (g Guard) Rejects(args map[string]datum.Value) bool {
	v, ok := g.eval(args)
	return ok && v.Kind() == datum.KindBool && !v.AsBool()
}

// Guards returns the guards of q: the top-level conjuncts of its WHERE
// clause that are event-only. Two query shapes have none, because
// their result is not empty when a conjunct fails: an aggregate query
// emits one row over an empty join, and a query without a FROM clause
// (rule internals may build one) emits its row without consulting
// WHERE.
func Guards(q *Query) []Guard {
	if len(q.From) == 0 || (len(q.Select) > 0 && hasAggregate(q.Select[0].Expr)) {
		return nil
	}
	var out []Guard
	for _, c := range splitConjuncts(q.Where) {
		fn, ok := compileEventExpr(c)
		if !ok {
			continue
		}
		g := Guard{Expr: c, eval: fn}
		if b, ok := c.(*Binary); ok && isComparison(b.Op) && b.Op != OpNe {
			ref, lit, op := b.L, b.R, b.Op
			if _, swapped := ref.(*Literal); swapped {
				ref, lit, op = b.R, b.L, flipOp(op)
			}
			if r, ok := ref.(*EventRef); ok {
				if l, ok := lit.(*Literal); ok && !l.Val.IsNull() {
					g.Arg, g.Op, g.Lit = r.Name, op, l.Val
				}
			}
		}
		out = append(out, g)
	}
	return out
}
