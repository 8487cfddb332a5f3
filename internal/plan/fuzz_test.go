package plan

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/query"
)

// fuzzFixture is a small deterministic store with mixed kinds, nulls,
// missing attributes, and an index, so fuzzed queries exercise every
// access path.
func fuzzFixture() *fakeReader {
	f := newFake()
	f.index("C0", "a0")
	f.index("C1", "a1")
	f.add("C0", 1, map[string]datum.Value{"a0": datum.Int(1), "a1": datum.Str("x")})
	f.add("C0", 2, map[string]datum.Value{"a0": datum.Int(2), "a1": datum.Str("y"), "a2": datum.Float(0.5)})
	f.add("C0", 3, map[string]datum.Value{"a0": datum.Null()})
	f.add("C0", 4, map[string]datum.Value{"a1": datum.Str("x")})
	f.add("C1", 10, map[string]datum.Value{"a0": datum.Float(2), "a1": datum.Int(7)})
	f.add("C1", 11, map[string]datum.Value{"a0": datum.Int(1), "a1": datum.Int(7)})
	f.add("C1", 12, map[string]datum.Value{"a1": datum.Null(), "a2": datum.Str("y")})
	return f
}

// FuzzPlan parses an arbitrary query string, compiles every plan the
// planner admits — and one prepared without arguments — once, and
// executes each against the fixture store under every argument set of
// argSets. The run must be panic-free, and whenever the tree-walk
// oracle and a plan both succeed under the same arguments they must
// return identical results. (Hard evaluation errors — type errors,
// division by zero — may strike different rows under different plans,
// so error cases only assert crash-freedom.)
func FuzzPlan(f *testing.F) {
	f.Add("select c from C0 c")
	f.Add("select c from C0 c where c.a0 = 2")
	f.Add("select a, b from C0 a, C1 b where a.a0 = b.a0")
	f.Add("select a.a1, b.a1 from C0 a, C1 b where a.a1 = b.a2 and b.a1 >= 7")
	f.Add("select count(*) as n, sum(a.a0) as s from C0 a where a.a0 > 0")
	f.Add("select a from C0 a where a = event.target")
	f.Add("select a.a0 from C0 a order by a.a0 desc limit 2")
	f.Add("select a, b, c from C0 a, C1 b, C0 c where a.a0 = b.a0 and c.a0 <= b.a1")
	f.Add("select a from C0 a where a.a0 = event.absent")
	f.Add("select a.a0, event.none from C0 a where a.a0 >= event.none or a = event.target")
	f.Add("select count(*) as n from C1 b where b.a1 = event.p + 6 and b.a0 != event.none")

	args := map[string]datum.Value{
		"target": datum.ID(2),
		"p":      datum.Int(1),
		"none":   datum.Null(),
	}
	sets, _ := argSets(args)

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return
		}
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		store := fuzzFixture()
		plans := []*Plan{
			Build(q, store, args, Options{}),
			Build(q, store, args, Options{DisableIndex: true}),
			Build(q, store, args, Options{DisableHash: true}),
			Build(q, nil, args, Options{ForceOrder: true}),
			Build(q, store, args, Options{Parallelism: 4, ParallelThreshold: -1}),
			Build(q, store, nil, Options{}),
		}
		plans = append(plans, Enumerate(q, store, args, Options{})...)
		for _, set := range sets {
			want, werr := query.Eval(q, store, set)
			for i, p := range plans {
				got, gerr := p.Execute(store, set)
				if werr != nil || gerr != nil {
					continue
				}
				if !want.Equal(got) {
					t.Fatalf("plan %d diverges from tree-walk under %v\nquery: %s\nwant: %+v\ngot:  %+v\n%s",
						i, set, src, want, got, p.Explain())
				}
			}
		}
	})
}
