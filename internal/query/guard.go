package query

import (
	"errors"

	"repro/internal/datum"
)

// This file is the signal-time half of condition evaluation: the
// conjuncts of a WHERE clause that reference no range variable — only
// event.* arguments and literals — can be decided from a signal's
// bindings alone, before any transaction, lock or snapshot exists. The
// Rule Manager indexes them per event (internal/rule's dispatch table)
// so a signal schedules only the firings that can be satisfied.

// eventArgs are a signal's bindings, the context guards evaluate over.
type eventArgs = map[string]datum.Value

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

	// pred is Expr compiled over a signal's arguments. A missing or null
	// argument fails it (errIndefinite) as a failed operator would.
	pred predFn[eventArgs]
}

var errIndefinite = errors.New("query: event argument missing or null")

// Rejects reports whether the guard is definitely false on args. A
// missing or null argument and an evaluation error never reject: the
// conjunct stays in the query, which then decides with the tree-walk's
// own missing-value rules.
func (g Guard) Rejects(args map[string]datum.Value) bool {
	pass, err := g.pred(args)
	return err == nil && !pass
}

// Guards returns the guards of q: the top-level conjuncts of its WHERE
// clause that are event-only. Two query shapes have none, because
// their result is not empty when a conjunct fails: an aggregate query
// emits one row over an empty join, and a query without a FROM clause
// (rule internals may build one) emits its row without consulting
// WHERE.
func Guards(q *Query) []Guard {
	if len(q.From) == 0 || (len(q.Select) > 0 && HasAggregate(q.Select[0].Expr)) {
		return nil
	}
	var out []Guard
	for _, c := range SplitConjuncts(q.Where) {
		// Compiling finds out whether c is event-only: the leaf
		// resolver has nothing to offer a range variable or an aggregate.
		eventOnly := true
		cc := compiler[eventArgs]{leaf: func(x Expr) node[eventArgs] {
			ref, ok := x.(*EventRef)
			eventOnly = eventOnly && ok
			return node[eventArgs]{fn: func(args eventArgs) (datum.Value, error) {
				if v, ok := args[ref.Name]; ok && !v.IsNull() {
					return v, nil
				}
				return datum.Null(), errIndefinite
			}}
		}}
		g := Guard{Expr: c}
		if g.pred, _ = cc.pred(c); !eventOnly {
			continue
		}
		if b, ok := c.(*Binary); ok && isComparison(b.Op) && b.Op != OpNe {
			ref, lit, op := b.L, b.R, b.Op
			if _, swapped := ref.(*Literal); swapped {
				ref, lit, op = b.R, b.L, FlipOp(op)
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
