package event

// Property tests over the event-spec algebra: random specs must
// print-parse round trip and detect consistently.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/datum"
)

// randSpec generates a random event specification of bounded depth.
func randSpec(rng *rand.Rand, depth int) Spec {
	max := 7
	if depth <= 0 {
		max = 4 // primitives only
	}
	switch rng.Intn(max) {
	case 0:
		ops := []Op{OpCreate, OpModify, OpDelete, OpDefineClass, OpDropClass, OpAny}
		classes := []string{"Stock", "Holding", "Audit", ""}
		return Database{Op: ops[rng.Intn(len(ops))], Class: classes[rng.Intn(len(classes))]}
	case 1:
		return Database{Op: []Op{OpCommit, OpAbort}[rng.Intn(2)]}
	case 2:
		names := []string{"A", "B", "Trade", "Open"}
		return External{Name: names[rng.Intn(len(names))]}
	case 3:
		switch rng.Intn(3) {
		case 0:
			return Temporal{Kind: Absolute,
				At: time.Unix(0, rng.Int63n(1e15)).UTC().Truncate(time.Second)}
		case 1:
			t := Temporal{Kind: Relative, Offset: time.Duration(rng.Intn(3600)) * time.Second}
			if rng.Intn(2) == 0 && depth > 0 {
				t.Baseline = randSpec(rng, depth-1)
			}
			return t
		default:
			t := Temporal{Kind: Periodic, Period: time.Duration(rng.Intn(3600)+1) * time.Second}
			if rng.Intn(2) == 0 && depth > 0 {
				t.Baseline = randSpec(rng, depth-1)
			}
			return t
		}
	case 4:
		// The windowed/interval/aggregate operators, with and without
		// a correlation clause.
		var correl Correl
		if rng.Intn(2) == 0 {
			correl = Correl{Attr: "ticker", Var: "t"}
		}
		switch rng.Intn(4) {
		case 0:
			w := Composite{Op: TimedSequence, Window: time.Duration(rng.Intn(3600)+1) * time.Second, Correl: correl}
			n := rng.Intn(2) + 2
			for i := 0; i < n; i++ {
				w.Parts = append(w.Parts, randSpec(rng, depth-1))
			}
			return w
		case 1:
			return Composite{Op: Interval, Parts: []Spec{randSpec(rng, depth-1), randSpec(rng, depth-1),
				randSpec(rng, depth-1)}, Correl: correl}
		case 2:
			return Composite{Op: []CompOp{Sliding, Tumbling}[rng.Intn(2)],
				Parts: []Spec{randSpec(rng, depth-1)}, Count: rng.Intn(100) + 1, Correl: correl}
		default:
			return Composite{Op: CountAggregate, Parts: []Spec{randSpec(rng, depth-1)}, Correl: correl,
				Count: rng.Intn(100) + 1, Window: time.Duration(rng.Intn(3600)+1) * time.Second}
		}
	default:
		ops := []CompOp{Disjunction, Sequence, Conjunction}
		n := rng.Intn(2) + 2
		c := Composite{Op: ops[rng.Intn(len(ops))]}
		for i := 0; i < n; i++ {
			c.Parts = append(c.Parts, randSpec(rng, depth-1))
		}
		return c
	}
}

func TestRandomSpecPrintParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		spec := randSpec(rng, 3)
		text := spec.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: Parse(%q): %v", trial, text, err)
		}
		if back.String() != text {
			t.Fatalf("trial %d: %q reparsed to %q", trial, text, back.String())
		}
	}
}

func TestRandomSpecsDefineAndDelete(t *testing.T) {
	// Every random spec must be definable; Delete must fully clean
	// up, leaving zero live subscriptions.
	rng := rand.New(rand.NewSource(13))
	d := New(clock.NewVirtual(time.Unix(0, 0)), func(SubID, Signal) error { return nil })
	for trial := 0; trial < 500; trial++ {
		spec := randSpec(rng, 3)
		id, err := d.Define(spec)
		if err != nil {
			t.Fatalf("trial %d: Define(%v): %v", trial, spec, err)
		}
		d.Delete(id)
	}
	if got := d.Subscriptions(); got != 0 {
		t.Fatalf("subscriptions leaked: %d", got)
	}
}

func TestDisjunctionOrderIrrelevant(t *testing.T) {
	// Property: or(A, B) and or(B, A) emit identically for any
	// interleaving of A and B signals.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		countFor := func(parts []Spec, stream []string) int {
			n := 0
			d := New(clock.NewVirtual(time.Unix(0, 0)),
				func(SubID, Signal) error { n++; return nil })
			if _, err := d.Define(Composite{Op: Disjunction, Parts: parts}); err != nil {
				t.Fatal(err)
			}
			for _, name := range stream {
				d.SignalExternal(name, 0, nil)
			}
			return n
		}
		stream := make([]string, rng.Intn(20))
		for i := range stream {
			stream[i] = []string{"A", "B", "C"}[rng.Intn(3)]
		}
		ab := countFor([]Spec{External{Name: "A"}, External{Name: "B"}}, stream)
		ba := countFor([]Spec{External{Name: "B"}, External{Name: "A"}}, stream)
		if ab != ba {
			t.Fatalf("trial %d: or(A,B)=%d, or(B,A)=%d for %v", trial, ab, ba, stream)
		}
	}
}

func TestConjunctionOrderIrrelevant(t *testing.T) {
	// Property: and(A, B) fires the same number of times as and(B, A)
	// for any stream.
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		countFor := func(parts []Spec, stream []string) int {
			n := 0
			d := New(clock.NewVirtual(time.Unix(0, 0)),
				func(SubID, Signal) error { n++; return nil })
			if _, err := d.Define(Composite{Op: Conjunction, Parts: parts}); err != nil {
				t.Fatal(err)
			}
			for _, name := range stream {
				d.SignalExternal(name, 0, map[string]datum.Value{"x": datum.Int(1)})
			}
			return n
		}
		stream := make([]string, rng.Intn(20))
		for i := range stream {
			stream[i] = []string{"A", "B"}[rng.Intn(2)]
		}
		ab := countFor([]Spec{External{Name: "A"}, External{Name: "B"}}, stream)
		ba := countFor([]Spec{External{Name: "B"}, External{Name: "A"}}, stream)
		if ab != ba {
			t.Fatalf("trial %d: and(A,B)=%d, and(B,A)=%d for %v", trial, ab, ba, stream)
		}
	}
}

func TestSequenceNeverExceedsPairCount(t *testing.T) {
	// Property: seq(A, B) fires at most min(#A, #B) times, and the
	// count equals the number of A->B alternation completions.
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		n := 0
		d := New(clock.NewVirtual(time.Unix(0, 0)),
			func(SubID, Signal) error { n++; return nil })
		d.Define(Composite{Op: Sequence, Parts: []Spec{
			External{Name: "A"}, External{Name: "B"},
		}})
		stream := make([]string, rng.Intn(30))
		countA, countB := 0, 0
		armed := false
		wantFires := 0
		for i := range stream {
			name := []string{"A", "B"}[rng.Intn(2)]
			stream[i] = name
			if name == "A" {
				countA++
				armed = true
			} else {
				countB++
				if armed {
					wantFires++
					armed = false
				}
			}
			d.SignalExternal(name, 0, nil)
		}
		limit := countA
		if countB < limit {
			limit = countB
		}
		if n > limit {
			t.Fatalf("trial %d: %d fires exceeds min(#A,#B)=%d for %v", trial, n, limit, stream)
		}
		if n != wantFires {
			t.Fatalf("trial %d: %d fires, reference model says %d for %v", trial, n, wantFires, stream)
		}
	}
}
