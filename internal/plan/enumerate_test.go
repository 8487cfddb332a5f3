package plan

import (
	"repro/internal/datum"
	"repro/internal/query"
)

// enumerateCap bounds the plan count Enumerate returns; the
// differential tests run every plan, so keep the space tractable.
const enumerateCap = 200

// Enumerate returns admissible physical plans for q: join-order
// permutations (all of them up to 4 FROM clauses) crossed with every
// access-path option per step. Built for the differential test suite
// — each returned plan must produce exactly query.Eval's result.
// opt's parallelism settings apply to every returned plan (the
// differential rounds force the parallel paths through here); its
// access constraints are ignored — enumeration wants the whole space.
func Enumerate(q *query.Query, cat Catalog, args map[string]datum.Value, opt Options) []*Plan {
	known := map[string]bool{}
	var vars []string
	for _, f := range q.From {
		vars = append(vars, f.Var)
		known[f.Var] = true
	}
	conjuncts := query.SplitConjuncts(q.Where)
	fc := query.NewFrameCompiler(vars)
	bounds := &boundEval{fc: fc, nvars: len(vars), args: args}

	var orders [][]int
	idx := make([]int, len(q.From))
	for i := range idx {
		idx[i] = i
	}
	if len(q.From) <= 4 {
		orders = permutations(idx)
	} else {
		orders = [][]int{idx}
	}

	var plans []*Plan
	for _, order := range orders {
		bound := map[string]bool{}
		var rec func(pos int, steps []*step, outRows float64)
		rec = func(pos int, steps []*step, outRows float64) {
			if len(plans) >= enumerateCap {
				return
			}
			if pos == len(order) {
				p := &Plan{Query: q, vars: vars, stats: cat != nil}
				// Steps are shared across enumerated plans, so copy
				// before the per-plan residuals, parallelism marks and
				// compiled expressions.
				for _, s := range steps {
					dup := *s
					p.steps = append(p.steps, &dup)
				}
				p.finish(conjuncts, fc, cat, opt)
				plans = append(plans, p)
				return
			}
			slot := order[pos]
			f := q.From[slot]
			// Hash joins need an outer side; skip the option set's
			// hash entries at position 0 (accessOptions already omits
			// them when the probe key has no bound variable).
			opts := accessOptions(f, slot, conjuncts, bound, cat, Options{}, new([][2]string))
			bound[f.Var] = true
			for _, s := range opts {
				costStep(s, conjuncts, known, bound, bounds, cat, outRows)
				rec(pos+1, append(steps, s), s.estRows)
			}
			delete(bound, f.Var)
		}
		rec(0, nil, 1)
		if len(plans) >= enumerateCap {
			break
		}
	}
	if len(q.From) == 0 {
		plans = append(plans, Build(q, cat, args, opt))
	}
	return plans
}

func permutations(idx []int) [][]int {
	if len(idx) <= 1 {
		return [][]int{append([]int(nil), idx...)}
	}
	var out [][]int
	for i := range idx {
		rest := make([]int, 0, len(idx)-1)
		rest = append(rest, idx[:i]...)
		rest = append(rest, idx[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{idx[i]}, p...))
		}
	}
	return out
}

// maxPar returns the widest step fan-out of the plan (1 when every
// stage runs inline).
func (p *Plan) maxPar() int {
	par := 1
	for _, s := range p.steps {
		par = max(par, s.par)
	}
	return par
}
