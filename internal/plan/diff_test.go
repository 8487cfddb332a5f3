package plan

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datum"
)

// The differential property suite: random schemas, data, and queries
// run through every admissible plan and the tree-walk oracle, which
// must agree bit-for-bit (checkAll). The generator is type-safe by
// construction — ordering comparisons only relate values of
// compatible kinds, and there is no arithmetic — so no query can hard
// -error and every divergence is a planner or executor bug.

type genAttr struct {
	name    string
	kind    datum.Kind
	indexed bool
}

type genClass struct {
	name  string
	attrs []genAttr
}

type genSchema struct {
	classes []genClass
}

func genValue(rng *rand.Rand, k datum.Kind) datum.Value {
	switch k {
	case datum.KindInt:
		return datum.Int(int64(rng.Intn(11) - 5))
	case datum.KindFloat:
		return datum.Float([]float64{-2, -0.5, 0, 0.5, 1, 2.5, 3}[rng.Intn(7)])
	default:
		return datum.Str(string(rune('a' + rng.Intn(5))))
	}
}

func genRound(rng *rand.Rand) (*fakeReader, genSchema, map[string]datum.Value) {
	kinds := []datum.Kind{datum.KindInt, datum.KindFloat, datum.KindString}
	var sc genSchema
	f := newFake()
	nClasses := 2 + rng.Intn(2)
	oid := datum.OID(1)
	for c := 0; c < nClasses; c++ {
		cl := genClass{name: fmt.Sprintf("C%d", c)}
		nAttrs := 2 + rng.Intn(3)
		for a := 0; a < nAttrs; a++ {
			at := genAttr{
				name:    fmt.Sprintf("a%d", a),
				kind:    kinds[rng.Intn(len(kinds))],
				indexed: rng.Intn(2) == 0,
			}
			cl.attrs = append(cl.attrs, at)
			if at.indexed {
				f.index(cl.name, at.name)
			}
		}
		sc.classes = append(sc.classes, cl)
		nRows := rng.Intn(13)
		for r := 0; r < nRows; r++ {
			attrs := map[string]datum.Value{}
			for _, at := range cl.attrs {
				switch p := rng.Float64(); {
				case p < 0.10: // absent
				case p < 0.20:
					attrs[at.name] = datum.Null()
				default:
					attrs[at.name] = genValue(rng, at.kind)
				}
			}
			f.add(cl.name, oid, attrs)
			oid++
		}
	}
	// One typed event argument per round, sometimes absent.
	args := map[string]datum.Value{}
	if rng.Intn(4) > 0 {
		args["p"] = genValue(rng, kinds[rng.Intn(len(kinds))])
	}
	// An OID-valued argument for identity pins, sometimes dangling.
	if rng.Intn(2) == 0 {
		args["target"] = datum.ID(datum.OID(1 + rng.Intn(int(oid)+2)))
	}
	return f, sc, args
}

// compatible reports whether two kinds may be related by an ordering
// comparison without a hard evaluation error.
func compatible(a, b datum.Kind) bool {
	num := func(k datum.Kind) bool { return k == datum.KindInt || k == datum.KindFloat }
	return a == b || (num(a) && num(b))
}

func genQuery(rng *rand.Rand, sc genSchema, args map[string]datum.Value) string {
	ordOps := []string{"=", "!=", "<", "<=", ">", ">="}

	type fromVar struct {
		v  string
		cl genClass
	}
	nFrom := 1 + rng.Intn(3)
	var from []fromVar
	var fromParts []string
	for i := 0; i < nFrom; i++ {
		cl := sc.classes[rng.Intn(len(sc.classes))]
		v := fmt.Sprintf("v%d", i)
		from = append(from, fromVar{v: v, cl: cl})
		fromParts = append(fromParts, cl.name+" "+v)
	}

	attrOf := func(fv fromVar) genAttr { return fv.cl.attrs[rng.Intn(len(fv.cl.attrs))] }

	var conjs []string
	nConj := rng.Intn(5)
	for i := 0; i < nConj; i++ {
		fv := from[rng.Intn(len(from))]
		at := attrOf(fv)
		lhs := fv.v + "." + at.name
		switch rng.Intn(5) {
		case 0: // attr vs literal, ordering-safe by same-kind literal
			op := ordOps[rng.Intn(len(ordOps))]
			lit := genValue(rng, at.kind)
			conjs = append(conjs, fmt.Sprintf("%s %s %s", lhs, op, litString(lit)))
		case 1: // join conjunct on compatible kinds
			ov := from[rng.Intn(len(from))]
			oat := attrOf(ov)
			op := "="
			if compatible(at.kind, oat.kind) {
				op = ordOps[rng.Intn(len(ordOps))]
			} else if rng.Intn(2) == 0 {
				op = "!=" // cross-kind equality never hard-errors
			}
			conjs = append(conjs, fmt.Sprintf("%s %s %s.%s", lhs, op, ov.v, oat.name))
		case 2: // attr vs event argument
			op := "="
			if p, ok := args["p"]; ok && compatible(at.kind, p.Kind()) {
				op = ordOps[rng.Intn(len(ordOps))]
			} else if rng.Intn(2) == 0 {
				op = "!="
			}
			conjs = append(conjs, fmt.Sprintf("%s %s event.p", lhs, op))
		case 3: // identity pin (possibly dangling or wrong class)
			conjs = append(conjs, fmt.Sprintf("%s = event.target", fv.v))
		default: // negated equality through NOT
			lit := genValue(rng, at.kind)
			conjs = append(conjs, fmt.Sprintf("not %s = %s", lhs, litString(lit)))
		}
	}

	var sb strings.Builder
	sb.WriteString("select ")
	aggMode := rng.Intn(4) == 0
	if aggMode {
		var items []string
		items = append(items, "count(*) as n")
		// Aggregate a numeric attribute when one exists.
		fv := from[rng.Intn(len(from))]
		for _, at := range fv.cl.attrs {
			if at.kind == datum.KindInt || at.kind == datum.KindFloat {
				fn := []string{"sum", "min", "max", "avg"}[rng.Intn(4)]
				items = append(items, fmt.Sprintf("%s(%s.%s) as agg", fn, fv.v, at.name))
				break
			}
		}
		sb.WriteString(strings.Join(items, ", "))
	} else {
		var items []string
		nSel := 1 + rng.Intn(3)
		for i := 0; i < nSel; i++ {
			fv := from[rng.Intn(len(from))]
			switch rng.Intn(3) {
			case 0:
				items = append(items, fv.v)
			case 1:
				items = append(items, "event.p")
			default:
				items = append(items, fv.v+"."+attrOf(fv).name)
			}
		}
		sb.WriteString(strings.Join(items, ", "))
	}
	sb.WriteString(" from ")
	sb.WriteString(strings.Join(fromParts, ", "))
	if len(conjs) > 0 {
		sb.WriteString(" where ")
		sb.WriteString(strings.Join(conjs, " and "))
	}
	if !aggMode && rng.Intn(5) < 2 {
		fv := from[rng.Intn(len(from))]
		sb.WriteString(" order by " + fv.v + "." + attrOf(fv).name)
		if rng.Intn(2) == 0 {
			sb.WriteString(" desc")
		}
		if rng.Intn(2) == 0 {
			ov := from[rng.Intn(len(from))]
			sb.WriteString(", " + ov.v + "." + attrOf(ov).name)
		}
	}
	if rng.Intn(10) < 3 {
		sb.WriteString(fmt.Sprintf(" limit %d", rng.Intn(6)))
	}
	return sb.String()
}

func litString(v datum.Value) string {
	if v.Kind() == datum.KindString {
		return "'" + v.AsString() + "'"
	}
	return v.String()
}

// TestDifferentialRandomized is the core property test: ≥150 random
// rounds, each running several random queries through every plan
// Enumerate produces plus all Build option combinations, against the
// tree-walk oracle.
func TestDifferentialRandomized(t *testing.T) {
	const rounds = 150
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) * 7919))
		f, sc, args := genRound(rng)
		// The reader hands its rows out by reference, as the store does
		// (query.Reader): no plan and no oracle run may write one, not
		// even through the list a value's AsList exposes.
		pristine := map[string][][]byte{}
		for class, rows := range f.classes {
			for _, r := range rows {
				pristine[class] = append(pristine[class], datum.AppendRow(nil, r.Row))
			}
		}
		for qi := 0; qi < 4; qi++ {
			src := genQuery(rng, sc, args)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("round %d panicked\nquery: %s\npanic: %v", round, src, r)
					}
				}()
				checkAll(t, src, f, args)
			}()
			if t.Failed() {
				t.Fatalf("round %d diverged (seed %d): %s", round, int64(round)*7919, src)
			}
		}
		for class, rows := range f.classes {
			for i, r := range rows {
				if now := datum.AppendRow(nil, r.Row); !bytes.Equal(now, pristine[class][i]) {
					t.Fatalf("round %d: %s %v was written during evaluation: %v, was %x",
						round, class, r.OID, r.Row.Map(), pristine[class][i])
				}
			}
		}
	}
}
