package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan as text: one line per pipeline step (join
// order, access path, bounds, residual filters, estimates), then the
// canonical sort and the emit stages. Surfaced through the engine's
// `explain` op and hipac-cli.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", p.Query.String())
	src := "statistics"
	if !p.stats {
		src = "no statistics, heuristic"
	}
	fmt.Fprintf(&sb, "plan (cost=%.1f, %s):\n", p.cost, src)
	for i, s := range p.steps {
		fmt.Fprintf(&sb, "  %d. %s %s as %s", i+1, s.access, s.from.Class, s.from.Var)
		switch s.access {
		case accessPin:
			fmt.Fprintf(&sb, ": %s = %s", s.from.Var, s.key.String())
		case accessIndex:
			fmt.Fprintf(&sb, " on %s: %s", s.attr, boundsString(s))
			if s.param {
				sb.WriteString(" [per outer row]")
			}
		case accessHash:
			fmt.Fprintf(&sb, ": build %s, probe %s", s.buildKey.String(), s.key.String())
		}
		if s.par > 1 {
			fmt.Fprintf(&sb, " parallel=%d", s.par)
		}
		fmt.Fprintf(&sb, " (est %.0f rows", s.estRows)
		if i > 0 {
			sb.WriteString(" cumulative")
		}
		sb.WriteString(")\n")
		for _, r := range s.residual {
			fmt.Fprintf(&sb, "     filter: %s\n", r.String())
		}
	}
	if len(p.vars) > 1 {
		fmt.Fprintf(&sb, "  canonical sort (%s)\n", strings.Join(p.vars, ", "))
	}
	q := p.Query
	items, label := make([]string, len(q.Select)), "select"
	for i, s := range q.Select {
		if items[i] = s.Name(); p.aggs != nil {
			items[i], label = s.Expr.String(), "aggregate"
		}
	}
	fmt.Fprintf(&sb, "  %s: %s\n", label, strings.Join(items, ", "))
	if len(q.OrderBy) > 0 {
		items := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			items[i] = o.Expr.String()
			if o.Desc {
				items[i] += " desc"
			}
		}
		fmt.Fprintf(&sb, "  order by %s\n", strings.Join(items, ", "))
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, "  limit %d\n", q.Limit)
	}
	return sb.String()
}

func boundsString(s *step) string {
	a := s.from.Var + "." + s.attr
	if s.lo != nil && s.hi != nil && s.lo == s.hi {
		return fmt.Sprintf("%s = %s", a, s.lo.String())
	}
	var parts []string
	if s.lo != nil {
		op := ">"
		if s.loInc {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", a, op, s.lo.String()))
	}
	if s.hi != nil {
		op := "<"
		if s.hiInc {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", a, op, s.hi.String()))
	}
	if len(parts) == 0 {
		return a + " unbounded"
	}
	return strings.Join(parts, " and ")
}
