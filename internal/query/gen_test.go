package query

import (
	"errors"
	"math/rand"

	"repro/internal/datum"
)

// genExpr builds a random expression over the leaves leaf yields and
// literals of every kind: comparisons (cross-kind included), nested
// and/or/not, arithmetic, negation and the scalar builtins. wantBool
// steers the operator choice so that most expressions type-check; one
// node in seven ignores it, which is where the type errors come from.
func genExpr(rng *rand.Rand, depth int, wantBool bool, leaf func() Expr) Expr {
	if depth <= 0 || rng.Intn(5) == 0 {
		if rng.Intn(3) == 0 {
			return &Literal{Val: genValue(rng)}
		}
		return leaf()
	}
	if rng.Intn(7) == 0 {
		wantBool = !wantBool
	}
	sub := func(b bool) Expr { return genExpr(rng, depth-1, b, leaf) }
	if wantBool {
		switch rng.Intn(6) {
		case 0, 1, 2:
			ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
			return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(false), R: sub(false)}
		case 3:
			return &Binary{Op: OpAnd, L: sub(true), R: sub(true)}
		case 4:
			return &Binary{Op: OpOr, L: sub(true), R: sub(true)}
		default:
			return &Unary{Op: OpNot, X: sub(true)}
		}
	}
	switch rng.Intn(5) {
	case 0, 1, 2:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(false), R: sub(false)}
	case 3:
		return &Unary{Op: OpNeg, X: sub(false)}
	default:
		fns := []string{"abs", "lower", "upper", "len"}
		return &Call{Fn: fns[rng.Intn(len(fns))], Args: []Expr{sub(false)}}
	}
}

func genValue(rng *rand.Rand) datum.Value {
	switch rng.Intn(14) {
	case 0:
		return datum.Null()
	case 1:
		return datum.Bool(rng.Intn(2) == 0)
	case 2, 3, 4, 5, 6:
		return datum.Int(int64(rng.Intn(7) - 3))
	case 7, 8, 9:
		return datum.Float(float64(rng.Intn(13)-6) / 2)
	case 10:
		return datum.ID(datum.OID(1 + rng.Intn(3)))
	case 11:
		return datum.List(datum.Int(1), datum.Str("x"))
	default:
		return datum.Str([]string{"", "x", "X", "yy"}[rng.Intn(4)])
	}
}

// genBindings draws values for the given names; a quarter are missing.
func genBindings(rng *rand.Rand, names ...string) map[string]datum.Value {
	out := map[string]datum.Value{}
	for _, name := range names {
		if rng.Intn(4) != 0 {
			out[name] = genValue(rng)
		}
	}
	return out
}

// eventLeaf yields event arguments a..d.
func eventLeaf(rng *rand.Rand) func() Expr {
	return func() Expr { return &EventRef{Name: string(rune('a' + rng.Intn(4)))} }
}

// actionLeaf yields what a rule action's expression reads: named
// bindings (s and t usually hold objects of actionReader, n never
// does, gone is never bound), their attributes, and event arguments.
func actionLeaf(rng *rand.Rand) func() Expr {
	names := []string{"s", "t", "s", "t", "s", "t", "n", "gone"}
	attrs := []string{"p", "p", "p", "q", "absent"}
	return func() Expr {
		switch rng.Intn(8) {
		case 0, 1:
			return &EventRef{Name: string(rune('a' + rng.Intn(2)))}
		case 2:
			return &VarRef{Name: names[rng.Intn(len(names))]}
		default:
			return &Path{Var: names[rng.Intn(len(names))], Attr: attrs[rng.Intn(len(attrs))]}
		}
	}
}

// actionBindings draws an action's named bindings and event arguments.
func actionBindings(rng *rand.Rand) (vars, args map[string]datum.Value) {
	vars = map[string]datum.Value{"n": genValue(rng)}
	for _, name := range []string{"s", "t"} {
		switch rng.Intn(6) {
		case 0: // unbound
		case 1:
			vars[name] = genValue(rng)
		default:
			vars[name] = datum.ID(datum.OID(1 + rng.Intn(4))) // #4 does not exist
		}
	}
	return vars, genBindings(rng, "a", "b")
}

// actionReader holds the three objects action bindings point at.
func actionReader() *memReader {
	m := newMemReader()
	m.add("C", 1, map[string]datum.Value{"p": datum.Int(3), "q": datum.Str("x")})
	m.add("C", 2, map[string]datum.Value{"p": datum.Float(-1.5), "q": datum.Null()})
	m.add("D", 3, map[string]datum.Value{"p": datum.Str("yy")})
	return m
}

// resultClass renders an evaluation's outcome for comparison: the
// value with its kind, "missing", or "error" for any hard error.
func resultClass(v datum.Value, err error) string {
	switch {
	case err == nil:
		return v.Kind().String() + ":" + v.String()
	case errors.Is(err, ErrNoValue):
		return "missing"
	default:
		return "error"
	}
}
