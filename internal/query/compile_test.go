package query

import (
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datum"
)

// frameLeaf yields what a plan's expression reads: the range variables
// a and b (zz is not in FROM), their attributes, and event arguments.
func frameLeaf(rng *rand.Rand) func() Expr {
	vars := []string{"a", "b", "a", "b", "zz"}
	return func() Expr {
		switch rng.Intn(8) {
		case 0, 1:
			return &EventRef{Name: string(rune('x' + rng.Intn(3)))}
		case 2:
			return &VarRef{Name: vars[rng.Intn(len(vars))]}
		default:
			return &Path{Var: vars[rng.Intn(len(vars))], Attr: []string{"p", "q", "r", "absent"}[rng.Intn(4)]}
		}
	}
}

// genFrame returns a frame binding a and b, then args in the event slot.
func genFrame(rng *rand.Rand, args map[string]datum.Value) Frame {
	f := make(Frame, 3)
	f[2].Row = datum.RowOf(args)
	for i := range f[:2] {
		f[i].OID = datum.OID(1 + rng.Intn(3))
		if rng.Intn(8) != 0 { // now and then an object without attributes
			f[i].Row = datum.RowOf(genBindings(rng, "p", "q", "r"))
		}
	}
	return f
}

func TestCompiledMatchesEvaluator(t *testing.T) {
	// Over random expressions, event arguments and frames, a compiled
	// value, predicate and aggregate is the tree-walk evaluator's: same
	// value, and the same class of failure (missing or hard error).
	rng := rand.New(rand.NewSource(19))
	classes := map[string]int{}
	for round := 0; round < 2500; round++ {
		x := genExpr(rng, 4, rng.Intn(2) == 0, frameLeaf(rng))
		aggFn := []string{"count", "sum", "avg", "min", "max"}[rng.Intn(5)]
		var item Expr = &Call{Fn: aggFn, Args: []Expr{x}}
		switch rng.Intn(4) {
		case 0:
			item = &Binary{Op: OpAdd, L: item, R: &Literal{Val: datum.Int(1)}}
		case 1:
			item = &Call{Fn: "abs", Args: []Expr{&Unary{Op: OpNeg, X: item}}}
		}
		for set := 0; set < 2; set++ {
			args := genBindings(rng, "x", "y", "z")
			fc := NewFrameCompiler([]string{"a", "b"})
			val, pred, agg := fc.Value(x), fc.Pred(x), fc.Aggregate(item)
			var st, want AggState
			failed := false
			for i := 0; i < 8; i++ {
				f := genFrame(rng, args)
				ev := evaluator{event: args, env: map[string]object{
					"a": {oid: f[0].OID, row: f[0].Row}, "b": {oid: f[1].OID, row: f[1].Row}}}
				got, exp := resultClass(val(f)), resultClass(ev.eval(x))
				if got != exp {
					t.Fatalf("%s on %v, %v: compiled %s, evaluator %s", x, f, args, got, exp)
				}
				classes[strings.SplitN(got, ":", 2)[0]]++
				gotOK, gotErr := pred(f)
				expOK, expErr := ev.evalBool(x)
				if gotOK != expOK || (gotErr != nil) != (expErr != nil) {
					t.Fatalf("%s on %v, %v: compiled predicate %v, %v; evaluator %v, %v", x, f, args, gotOK, gotErr, expOK, expErr)
				}
				if !failed {
					gotErr, expErr := agg.Accumulate(&st, f), ev.accumulate(&want, item)
					if (gotErr != nil) != (expErr != nil) {
						t.Fatalf("%s on %v, %v: compiled accumulate %v, evaluator %v", item, f, args, gotErr, expErr)
					}
					failed = gotErr != nil
				}
			}
			if failed {
				continue
			}
			if got, exp := resultClass(agg.Finish(&st)), resultClass(finishAggregate(&want, item)); got != exp {
				t.Fatalf("%s, %v: compiled aggregate %s, evaluator %s", item, args, got, exp)
			}
		}
	}
	for _, c := range []string{"missing", "error", "null", "bool", "int", "float", "string"} {
		if classes[c] < 200 {
			t.Errorf("generator too weak: %d results of class %s (%v)", classes[c], c, classes)
		}
	}
}

func TestFusedComparisonsMatchEvaluator(t *testing.T) {
	// The fused shapes — path against constant (either side), path
	// against path — over every operator, with missing and null on both
	// sides and cross-kind operands.
	rng := rand.New(rand.NewSource(23))
	ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for round := 0; round < 3000; round++ {
		p := &Path{Var: "a", Attr: "p"}
		var other Expr
		switch rng.Intn(4) {
		case 0:
			other = &Path{Var: "b", Attr: "q"}
		case 1:
			other = &EventRef{Name: "x"}
		case 2:
			other = &Unary{Op: OpNeg, X: &Literal{Val: genValue(rng)}}
		default:
			other = &Literal{Val: genValue(rng)}
		}
		x := &Binary{Op: ops[rng.Intn(len(ops))], L: p, R: other}
		if rng.Intn(2) == 0 {
			x.L, x.R = x.R, x.L
		}
		args := genBindings(rng, "x")
		pred := NewFrameCompiler([]string{"a", "b"}).Pred(x)
		f := genFrame(rng, args)
		ev := evaluator{event: args, env: map[string]object{
			"a": {oid: f[0].OID, row: f[0].Row}, "b": {oid: f[1].OID, row: f[1].Row}}}
		gotOK, gotErr := pred(f)
		expOK, expErr := ev.evalBool(x)
		if gotOK != expOK || (gotErr != nil) != (expErr != nil) {
			t.Fatalf("%s on %v, %v: compiled %v, %v; evaluator %v, %v", x, f, args, gotOK, gotErr, expOK, expErr)
		}
	}
}

func TestActionExprMatchesGolden(t *testing.T) {
	// testdata/action_golden.txt holds what the interpreter this compiler
	// replaced (exprEvaluator, which substituted literals into a copy of
	// the AST per evaluation) returned for these expressions and
	// bindings, captured at the parent commit with the scalarCall type
	// errors of this change applied.
	raw, err := os.ReadFile("testdata/action_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	rng := rand.New(rand.NewSource(19))
	m := actionReader()
	for round, line := range lines {
		x := genExpr(rng, 3, rng.Intn(2) == 0, actionLeaf(rng))
		want := strings.Split(line, "\t")
		if want[0] != x.String() {
			t.Fatalf("case %d: generator drifted from the golden file: %s, want %s", round, x, want[0])
		}
		compiled := CompileExpr(x)
		for i := 1; i < len(want); i++ {
			vars, args := actionBindings(rng)
			if got := resultClass(compiled.Eval(m, vars, args)); got != want[i] {
				t.Fatalf("%s with %v, %v: %s, want %s", x, vars, args, got, want[i])
			}
		}
	}
	if len(lines) < 800 {
		t.Fatalf("golden file has %d cases", len(lines))
	}
}

func TestAggregateMergeIsExactOrDeclines(t *testing.T) {
	// Partial states over a random partition of the rows, each
	// accumulated in a random order, either merge into exactly what
	// accumulating the rows in order gives — same value, same kind — or
	// Merge declines. Int columns must not decline (except avg).
	rng := rand.New(rand.NewSource(29))
	fc := NewFrameCompiler([]string{"a"})
	merged, declined := 0, 0
	for round := 0; round < 3000; round++ {
		fn := []string{"count", "sum", "avg", "min", "max"}[rng.Intn(5)]
		agg := fc.Aggregate(&Call{Fn: fn, Args: []Expr{&Path{Var: "a", Attr: "p"}}})
		if rng.Intn(8) == 0 {
			agg = fc.Aggregate(&Call{Fn: "count", Star: true})
		}
		intsOnly := rng.Intn(2) == 0
		frames := make([]Frame, rng.Intn(12))
		for i := range frames {
			v := genValue(rng)
			if intsOnly && rng.Intn(6) != 0 { // the rest: null
				v = datum.Int(int64(rng.Intn(5) - 2))
			} else if intsOnly {
				v = datum.Null()
			}
			frames[i] = Frame{{OID: datum.OID(i + 1), Row: datum.RowOf(map[string]datum.Value{"p": v})}}
		}
		var serial AggState
		for _, f := range frames {
			if err := agg.Accumulate(&serial, f); err != nil {
				t.Fatal(err)
			}
		}
		parts := make([]AggState, 1+rng.Intn(4))
		for _, i := range rng.Perm(len(frames)) {
			if err := agg.Accumulate(&parts[rng.Intn(len(parts))], frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		var all AggState
		ok := true
		for i := range parts {
			ok = ok && agg.Merge(&all, &parts[i])
		}
		if !ok {
			declined++
			if intsOnly && fn != "avg" {
				t.Fatalf("%s over ints declined to merge", fn)
			}
			continue
		}
		merged++
		got, gerr := agg.Finish(&all)
		want, werr := agg.Finish(&serial)
		if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over %v: merged %v (%v), in order %v (%v)", fn, frames, got, gerr, want, werr)
		}
	}
	if merged < 500 || declined < 500 {
		t.Fatalf("generator too weak: %d merged, %d declined", merged, declined)
	}
}
