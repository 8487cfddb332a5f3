package event

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/datum"
	"repro/internal/lock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/composite_golden.txt from the current detectors")

// goldenPart draws a part of a composite: an external A–D, or (while
// depth lasts) a nested or/seq/and, a within or a tumbling window.
func goldenPart(rng *rand.Rand, depth int) Spec {
	k := 0
	if depth > 0 {
		k = rng.Intn(6)
	}
	var correl Correl
	if rng.Intn(2) == 0 {
		correl = Correl{Attr: "k", Var: "v"}
	}
	switch k {
	case 3:
		return goldenComposite(rng, depth)
	case 4:
		w := Composite{Op: TimedSequence, Window: []time.Duration{5 * time.Second, 10 * time.Second, 30 * time.Second}[rng.Intn(3)], Correl: correl}
		for i, n := 0, 2+rng.Intn(2); i < n; i++ {
			w.Parts = append(w.Parts, goldenPart(rng, depth-1))
		}
		return w
	case 5:
		return Composite{Op: Tumbling, Parts: []Spec{goldenPart(rng, depth-1)}, Count: 1 + rng.Intn(3), Correl: correl}
	default:
		return External{Name: string(rune('A' + rng.Intn(4)))}
	}
}

// goldenComposite draws an or/seq/and of two or three parts.
func goldenComposite(rng *rand.Rand, depth int) Spec {
	c := Composite{Op: []CompOp{Disjunction, Sequence, Conjunction}[rng.Intn(3)]}
	for i, n := 0, 2+rng.Intn(2); i < n; i++ {
		c.Parts = append(c.Parts, goldenPart(rng, depth-1))
	}
	return c
}

// goldenBindings draws a signal's arguments: nil, empty, or a mix of
// keys every event shares ("k", the correlation attribute, and "n")
// and one only this event carries.
func goldenBindings(rng *rand.Rand, name string, i int) map[string]datum.Value {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return map[string]datum.Value{}
	}
	b := map[string]datum.Value{strings.ToLower(name): datum.Int(int64(i))}
	if rng.Intn(3) != 0 {
		b["k"] = datum.Str([]string{"x", "y"}[rng.Intn(2)])
	}
	if rng.Intn(2) == 0 {
		b["n"] = datum.Int(int64(i))
	}
	return b
}

// goldenRun replays the generator's cases through fresh detectors on
// a virtual clock and renders every spec and every emission: case,
// signal, spec, transaction, time since the epoch and sorted bindings.
func goldenRun(t *testing.T) string {
	rng := rand.New(rand.NewSource(23))
	var out strings.Builder
	for c := 0; c < 200; c++ {
		clk := clock.NewVirtual(epoch)
		specOf := map[SubID]int{}
		signal := 0
		d := New(clk, func(id SubID, sig Signal) error {
			keys := make([]string, 0, len(sig.Bindings))
			for k := range sig.Bindings {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i, k := range keys {
				keys[i] = k + "=" + sig.Bindings[k].String()
			}
			fmt.Fprintf(&out, "%d %d %d tx=%d +%s {%s}\n", c, signal, specOf[id], sig.Txn,
				sig.Time.Sub(epoch), strings.Join(keys, ", "))
			return nil
		})
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			spec := goldenComposite(rng, 3)
			id, err := d.Define(spec)
			if err != nil {
				t.Fatalf("Define(%s): %v", spec, err)
			}
			specOf[id] = i
			fmt.Fprintf(&out, "%d def %d %s\n", c, i, spec)
		}
		for ; signal < 40; signal++ {
			clk.Advance([]time.Duration{0, 0, time.Second, 2 * time.Second, 7 * time.Second}[rng.Intn(5)])
			name := string(rune('A' + rng.Intn(4)))
			tx := lock.TxnID(rng.Intn(4))
			if _, err := d.SignalExternal(name, tx, goldenBindings(rng, name, signal)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.String()
}

func TestCompositeDetectionMatchesGolden(t *testing.T) {
	// testdata/composite_golden.txt holds what the hand-written or/seq/and
	// automata emitted for these random specs and streams; the one
	// composite-event runtime must reproduce it byte for byte.
	got := goldenRun(t)
	const path = "testdata/composite_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(g), len(w))
}
