package query

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datum"
)

func TestGuardsMatchEvaluator(t *testing.T) {
	// A guard never rejects unless the tree-walk evaluator finds the
	// conjunct false without an error; when every argument is present
	// and not null it rejects exactly then.
	rng := rand.New(rand.NewSource(13))
	rejected, definite := 0, 0
	for round := 0; round < 2000; round++ {
		x := genExpr(rng, 4, true, eventLeaf(rng))
		// `x or false` decides as x does, and is one conjunct whatever x is.
		gs := Guards(&Query{Select: []SelectItem{{Expr: &VarRef{Name: "s"}}}, From: []FromClause{{Class: "S", Var: "s"}},
			Where: &Binary{Op: OpOr, L: x, R: &Literal{Val: datum.Bool(false)}}})
		if len(gs) != 1 {
			t.Fatalf("event-only expression %s is not a guard", x)
		}
		for i := 0; i < 8; i++ {
			args := genBindings(rng, "a", "b", "c", "d")
			if i%2 == 0 {
				args = map[string]datum.Value{"a": datum.Int(1), "b": datum.Float(-0.5), "c": datum.Str("x"), "d": datum.Bool(true)}
			}
			ev := evaluator{event: args}
			pass, err := ev.evalBool(x)
			got := gs[0].Rejects(args)
			if got && (pass || err != nil) {
				t.Fatalf("%s on %v: guard rejects, evaluator says %v, %v", x, args, pass, err)
			}
			if got {
				rejected++
			}
			if i%2 == 0 {
				definite++
				if want := err == nil && !pass; got != want {
					t.Fatalf("%s on %v: guard rejects = %v, evaluator says %v, %v", x, args, got, pass, err)
				}
			}
		}
	}
	if definite < 1000 || rejected < 200 {
		t.Fatalf("generator too weak: %d definite evaluations, %d rejections", definite, rejected)
	}
}

func TestGuardNeverRejectsOnMissingNullOrError(t *testing.T) {
	g := Guards(MustParse("select s from S s where event.a >= 5"))[0]
	for name, args := range map[string]map[string]datum.Value{
		"missing":    {},
		"null":       {"a": datum.Null()},
		"type error": {"a": datum.Str("x")},
		"true":       {"a": datum.Int(5)},
	} {
		if g.Rejects(args) {
			t.Errorf("%s argument rejected", name)
		}
	}
	if !g.Rejects(map[string]datum.Value{"a": datum.Float(4.5)}) {
		t.Error("a definite false must reject")
	}
	// Cross-kind equality is definite (unequal), not an error.
	eq := Guards(MustParse("select s from S s where event.a = 'x'"))[0]
	if !eq.Rejects(map[string]datum.Value{"a": datum.Int(1)}) {
		t.Error("int = string is definitely false")
	}
}

func TestGuardsClassification(t *testing.T) {
	q := MustParse(`select s from S s where s = event.oid and 10 < event.p and event.sym = 'X'
		and (event.a > 1 or event.b > 2) and s.p > event.p and event.q != 3`)
	got := Guards(q)
	type shape struct {
		arg string
		op  BinOp
	}
	var shapes []shape
	for _, g := range got {
		shapes = append(shapes, shape{g.Arg, g.Op})
	}
	want := []shape{{"p", OpGt}, {"sym", OpEq}, {"", ""}, {"", ""}}
	if !reflect.DeepEqual(shapes, want) {
		t.Fatalf("guards = %+v (%v), want %+v", shapes, got, want)
	}
	if !reflect.DeepEqual(got[0].Lit, datum.Int(10)) {
		t.Fatalf("flipped literal = %v", got[0].Lit)
	}

	// No guards where a failing conjunct does not empty the result.
	agg := MustParse("select count(*) from S s where event.a = 1")
	fromless := &Query{Select: []SelectItem{{Expr: &Literal{Val: datum.Int(1)}}},
		Where: &Literal{Val: datum.Bool(false)}, Limit: -1}
	for _, q := range []*Query{agg, fromless, MustParse("select s from S s")} {
		if g := Guards(q); len(g) != 0 {
			t.Errorf("%s: guards = %v, want none", q, g)
		}
	}
	// A range variable or an aggregate keeps a conjunct out.
	for _, x := range []Expr{&Path{Var: "s", Attr: "p"}, &VarRef{Name: "s"},
		&Call{Fn: "count", Star: true}, &Binary{Op: OpEq, L: &EventRef{Name: "a"}, R: &VarRef{Name: "s"}}} {
		q := &Query{Select: []SelectItem{{Expr: &VarRef{Name: "s"}}}, From: []FromClause{{Class: "S", Var: "s"}}, Where: x}
		if g := Guards(q); len(g) != 0 {
			t.Errorf("%s compiled as event-only", x)
		}
	}
}
