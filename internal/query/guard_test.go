package query

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datum"
)

// genEventExpr builds a random event-only expression: event arguments
// a..d and literals of every kind under comparisons (cross-kind
// included), boolean connectives, arithmetic and the scalar builtins.
func genEventExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return &EventRef{Name: string(rune('a' + rng.Intn(4)))}
		}
		return &Literal{Val: genValue(rng)}
	}
	sub := func() Expr { return genEventExpr(rng, depth-1) }
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 4:
		return &Binary{Op: OpAnd, L: sub(), R: sub()}
	case 5:
		return &Binary{Op: OpOr, L: sub(), R: sub()}
	case 6:
		return &Unary{Op: OpNot, X: sub()}
	case 7:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 8:
		return &Unary{Op: OpNeg, X: sub()}
	default:
		fns := []string{"abs", "lower", "upper", "len"}
		return &Call{Fn: fns[rng.Intn(len(fns))], Args: []Expr{sub()}}
	}
}

func genValue(rng *rand.Rand) datum.Value {
	switch rng.Intn(7) {
	case 0:
		return datum.Null()
	case 1:
		return datum.Bool(rng.Intn(2) == 0)
	case 2, 3:
		return datum.Int(int64(rng.Intn(7) - 3))
	case 4:
		return datum.Float(float64(rng.Intn(13)-6) / 2)
	default:
		return datum.Str([]string{"", "x", "X", "yy"}[rng.Intn(4)])
	}
}

func genBindings(rng *rand.Rand) map[string]datum.Value {
	args := map[string]datum.Value{}
	for _, name := range []string{"a", "b", "c", "d"} {
		if rng.Intn(4) != 0 { // a quarter of the arguments are missing
			args[name] = genValue(rng)
		}
	}
	return args
}

func TestCompiledEventExprMatchesEvaluator(t *testing.T) {
	// Whenever the closure calls a value definite it is the tree-walk
	// evaluator's value, and whenever a guard rejects, the evaluator
	// finds the predicate false without an error.
	rng := rand.New(rand.NewSource(13))
	definite, rejected := 0, 0
	for round := 0; round < 2000; round++ {
		x := genEventExpr(rng, 4)
		fn, ok := compileEventExpr(x)
		if !ok {
			t.Fatalf("event-only expression %s did not compile", x)
		}
		g := Guard{Expr: x, eval: fn}
		for i := 0; i < 8; i++ {
			args := genBindings(rng)
			env := NewEnv(nil, args)
			if v, ok := fn(args); ok {
				definite++
				want, err := env.Eval(x)
				if err != nil || !reflect.DeepEqual(v, want) {
					t.Fatalf("%s on %v: closure says %v, evaluator %v, %v", x, args, v, want, err)
				}
			}
			if g.Rejects(args) {
				rejected++
				if pass, err := env.EvalBool(x); pass || err != nil {
					t.Fatalf("%s on %v: guard rejects, evaluator says %v, %v", x, args, pass, err)
				}
			}
		}
	}
	if definite < 1000 || rejected < 200 {
		t.Fatalf("generator too weak: %d definite values, %d rejections", definite, rejected)
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
	// A range variable or an aggregate keeps an expression out.
	for _, x := range []Expr{&Path{Var: "s", Attr: "p"}, &VarRef{Name: "s"},
		&Call{Fn: "count", Star: true}, &Binary{Op: OpEq, L: &EventRef{Name: "a"}, R: &VarRef{Name: "s"}}} {
		if _, ok := compileEventExpr(x); ok {
			t.Errorf("%s compiled as event-only", x)
		}
	}
}
