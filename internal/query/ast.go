// Package query implements the object-oriented DML that HiPAC rule
// conditions and applications use (§2.1 of the paper: "a collection
// of queries expressed in an object-oriented DML ... may refer to
// arguments in the event signal").
//
// The language is a small OQL-flavoured select:
//
//	select s from Stock s where s.price >= 50
//	select s, t from Stock s, Trade t
//	    where s.symbol = t.symbol and t.qty > 100
//	select s.symbol as sym, s.price * 1.1 as target from Stock s
//	select count(s) from Stock s where s.price > event.new_price
//
// Expressions support arithmetic, comparison, boolean logic, string
// concatenation (+), attribute paths (var.attr), event-argument
// references (event.name), and whole-result aggregates (count, sum,
// avg, min, max).
//
// Queries read objects through a Reader, which hands out the store's
// rows (datum.Row) by reference; maps appear only in what callers pass
// in (event arguments) and get back (Result.RowBindings). Compiled
// expressions (compile.go) resolve a path var.attr to a frame slot and
// an attribute id when they are built, so reading it is two indexed
// loads whatever the row's shape; the tree-walk oracle (eval.go) looks
// attributes up by name.
package query

import (
	"fmt"
	"strings"

	"repro/internal/datum"
)

// Query is a parsed select statement.
type Query struct {
	Select  []SelectItem
	From    []FromClause
	Where   Expr // nil when absent
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// OrderItem is one "order by" key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectItem is one projection: an expression and its output name.
type SelectItem struct {
	Expr  Expr
	Alias string // defaults to a rendering of the expression
}

// Name returns the output column name.
func (s SelectItem) Name() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Expr.String()
}

// FromClause binds a range variable over a class extent.
type FromClause struct {
	Class string
	Var   string
}

// String renders the query in canonical form (used as the sharing key
// in the condition graph, so it must be deterministic).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("select ")
	for i, s := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(s.Expr.String())
		if s.Alias != "" {
			sb.WriteString(" as ")
			sb.WriteString(s.Alias)
		}
	}
	sb.WriteString(" from ")
	for i, f := range q.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", f.Class, f.Var)
	}
	if q.Where != nil {
		sb.WriteString(" where ")
		sb.WriteString(q.Where.String())
	}
	if len(q.OrderBy) > 0 {
		sb.WriteString(" order by ")
		for i, o := range q.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" desc")
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, " limit %d", q.Limit)
	}
	return sb.String()
}

// Footprint describes which classes and attributes a query reads;
// the Rule Manager derives event specifications from it (§2.1: "HiPAC
// derives the event specification from the condition") and the
// condition evaluator uses it for incremental evaluation.
type Footprint struct {
	// Classes maps each class read to the set of attributes
	// referenced through its range variables (nil set = whole
	// object).
	Classes map[string]map[string]struct{}
	// EventArgs lists the event.* argument names referenced.
	EventArgs []string
}

// ComputeFootprint walks the query.
func (q *Query) ComputeFootprint() Footprint {
	fp := Footprint{Classes: map[string]map[string]struct{}{}}
	varClass := map[string]string{}
	for _, f := range q.From {
		varClass[f.Var] = f.Class
		if fp.Classes[f.Class] == nil {
			fp.Classes[f.Class] = map[string]struct{}{}
		}
	}
	seenEvent := map[string]bool{}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case nil:
		case *Path:
			if cls, ok := varClass[v.Var]; ok {
				fp.Classes[cls][v.Attr] = struct{}{}
			}
		case *EventRef:
			if !seenEvent[v.Name] {
				seenEvent[v.Name] = true
				fp.EventArgs = append(fp.EventArgs, v.Name)
			}
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Unary:
			walk(v.X)
		case *Call:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	for _, s := range q.Select {
		walk(s.Expr)
	}
	walk(q.Where)
	for _, o := range q.OrderBy {
		walk(o.Expr)
	}
	return fp
}

// Expr is a node of the expression tree.
type Expr interface {
	String() string
	isExpr()
}

// Literal is a constant value.
type Literal struct{ Val datum.Value }

func (*Literal) isExpr()          {}
func (l *Literal) String() string { return l.Val.String() }

// VarRef references a range variable (yields the object's OID value).
type VarRef struct{ Name string }

func (*VarRef) isExpr()          {}
func (v *VarRef) String() string { return v.Name }

// Path references an attribute of a range variable: var.attr.
type Path struct {
	Var  string
	Attr string
}

func (*Path) isExpr()          {}
func (p *Path) String() string { return p.Var + "." + p.Attr }

// EventRef references an event-signal argument: event.name.
type EventRef struct{ Name string }

func (*EventRef) isExpr()          {}
func (e *EventRef) String() string { return "event." + e.Name }

// BinOp is a binary operator.
type BinOp string

// Binary operators.
const (
	OpAdd BinOp = "+"
	OpSub BinOp = "-"
	OpMul BinOp = "*"
	OpDiv BinOp = "/"
	OpMod BinOp = "%"
	OpEq  BinOp = "="
	OpNe  BinOp = "!="
	OpLt  BinOp = "<"
	OpLe  BinOp = "<="
	OpGt  BinOp = ">"
	OpGe  BinOp = ">="
	OpAnd BinOp = "and"
	OpOr  BinOp = "or"
)

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (*Binary) isExpr() {}
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// UnOp is a unary operator.
type UnOp string

// Unary operators.
const (
	OpNot UnOp = "not"
	OpNeg UnOp = "-"
)

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
}

func (*Unary) isExpr() {}
func (u *Unary) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("(not %s)", u.X)
	}
	return fmt.Sprintf("(-%s)", u.X)
}

// Call invokes a builtin function or aggregate: count, sum, avg, min,
// max (aggregates); abs, lower, upper, len (scalars).
type Call struct {
	Fn   string
	Args []Expr
	Star bool // count(*)
}

func (*Call) isExpr() {}
func (c *Call) String() string {
	if c.Star {
		return c.Fn + "(*)"
	}
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(args, ", "))
}

// aggregates is the set of whole-result aggregate functions.
var aggregates = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// IsAggregate reports whether the call is an aggregate.
func (c *Call) IsAggregate() bool { return aggregates[c.Fn] }

// HasAggregate reports whether the expression contains an aggregate
// call. A query whose first select item has one runs in aggregate mode:
// one output row accumulated over the join.
func HasAggregate(e Expr) bool {
	switch v := e.(type) {
	case *Binary:
		return HasAggregate(v.L) || HasAggregate(v.R)
	case *Unary:
		return HasAggregate(v.X)
	case *Call:
		if v.IsAggregate() {
			return true
		}
		for _, a := range v.Args {
			if HasAggregate(a) {
				return true
			}
		}
	}
	return false
}
