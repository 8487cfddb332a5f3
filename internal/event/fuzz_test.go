package event

// Fuzz target for the event-spec parser, centered on the composite
// grammar (within/during/sliding/tumbling/count). The parser must
// reject arbitrary text with an error — never panic — and any text it
// accepts must be stable: String() re-parses to an identical spec
// (the canonical form is what rules persist and share subscriptions
// by, so instability would split or corrupt the subscription index).
// Any text it accepts must also define: a rule whose event parses but
// does not define would be persisted and then fail every restart.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
)

// fuzzSeeds are the fuzz corpus seeds with the canonical form each
// parses to, or "" where Parse rejects it.
var fuzzSeeds = []struct{ src, canon string }{
	{"modify(Stock)", "modify(Stock)"},
	{"or(modify(Stock), delete(Stock))", "or(modify(Stock), delete(Stock))"},
	{"seq(external(A), external(B))", "seq(external(A), external(B))"},
	{"and(commit(), external(X))", "and(commit(), external(X))"},
	{"within(external(A), external(B), 30s)", "within(external(A), external(B), 30s)"},
	{"within(modify(Stock), external(Confirm), external(Settle), 5m0s where ticker=$t)",
		"within(modify(Stock), external(Confirm), external(Settle), 5m0s where ticker=$t)"},
	{"during(external(Trade), external(Open), external(Close))",
		"during(external(Trade), external(Open), external(Close))"},
	{"during(modify(Stock), external(Open), external(Close) where acct=$a)",
		"during(modify(Stock), external(Open), external(Close) where acct=$a)"},
	{"sliding(external(Tick), 5)", "sliding(external(Tick), 5)"},
	{"tumbling(external(Tick), 100 where ticker=$t)", "tumbling(external(Tick), 100 where ticker=$t)"},
	{"count(external(PriceDrop)) >= 3 within 1m0s", "count(external(PriceDrop)) >= 3 within 1m0s"},
	{"count(PriceDrop where ticker=$t) >= 10 within 1m",
		"count(external(PriceDrop) where ticker=$t) >= 10 within 1m0s"},
	{"within(within(external(A), external(B), 10s), external(C), 1m0s)",
		"within(within(external(A), external(B), 10s), external(C), 1m0s)"},
	{"count(seq(external(A), external(B)) where k=$v) >= 2 within 10s",
		"count(seq(external(A), external(B)) where k=$v) >= 2 within 10s"},
	{"within(external(A), external(B)", ""},   // truncated
	{"count(external(A)) >= 99999999999", ""}, // overflow
	{"during(,,)", ""},
	{"sliding(external(A), -1)", ""},
	{"every(0s)", ""}, // parses, but no detector can run it
}

func TestFuzzSeedsCanonical(t *testing.T) {
	for _, s := range fuzzSeeds {
		spec, err := Parse(s.src)
		switch {
		case s.canon == "" && err == nil:
			t.Errorf("Parse(%q) = %q, want an error", s.src, spec)
		case s.canon != "" && err != nil:
			t.Errorf("Parse(%q): %v", s.src, err)
		case s.canon != "" && spec.String() != s.canon:
			t.Errorf("Parse(%q).String() = %q, want %q", s.src, spec, s.canon)
		}
	}
}

func FuzzCompositeSpec(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return
		}
		text := spec.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v", text, src, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("canonical form %q re-parses to a different spec (from %q)", text, src)
		}
		if back.String() != text {
			t.Fatalf("canonical form not a fixed point: %q -> %q", text, back.String())
		}
		d := New(clock.NewVirtual(time.Unix(0, 0)), func(SubID, Signal) error { return nil })
		id, err := d.Define(spec)
		if err != nil {
			t.Fatalf("accepted input %q does not define: %v", src, err)
		}
		d.Delete(id)
		if n := d.Subscriptions(); n != 0 {
			t.Fatalf("%q: %d subscriptions left after Delete", src, n)
		}
	})
}
