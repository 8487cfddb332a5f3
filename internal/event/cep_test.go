package event

// Detector-level tests for the composite-event runtime: windowed,
// interval, and aggregate specs defined through Define and driven by
// SignalExternal / SignalDatabase, including the periodic GC sweep on
// the virtual clock and the detector-wide CEP stats.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/lock"
)

func mustParse(t *testing.T, src string) Spec {
	t.Helper()
	spec, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return spec
}

func signalDrop(t *testing.T, d *Detectors, ticker string) int {
	t.Helper()
	n, err := d.SignalExternal("PriceDrop", 0, map[string]datum.Value{
		"ticker": datum.Str(ticker),
		"price":  datum.Int(100),
	})
	if err != nil {
		t.Fatalf("SignalExternal: %v", err)
	}
	return n
}

func TestDetectAggregateCorrelated(t *testing.T) {
	d, col, _ := setup()
	if _, err := d.Define(mustParse(t,
		"count(external(PriceDrop) where ticker=$t) >= 3 within 1m0s")); err != nil {
		t.Fatal(err)
	}
	// Interleave two tickers; each must reach its threshold on its own.
	for _, tk := range []string{"AAPL", "MSFT", "AAPL", "MSFT", "AAPL"} {
		signalDrop(t, d, tk)
	}
	if col.count() != 1 {
		t.Fatalf("emissions = %d, want 1 (AAPL reached 3)", col.count())
	}
	sig := col.last()
	if got := sig.Bindings["t"]; !datum.Equal(got, datum.Str("AAPL")) {
		t.Fatalf("correlation binding t = %v, want AAPL", got)
	}
	if got := sig.Bindings["cep_count"]; !datum.Equal(got, datum.Int(3)) {
		t.Fatalf("cep_count = %v, want 3", got)
	}
	if _, ok := sig.Bindings["cep_window_start"]; !ok {
		t.Fatalf("firing lacks cep_window_start binding: %v", sig.Bindings)
	}
	// MSFT is at 2 of 3; one more fires it, and the consumed AAPL set
	// does not fire again from a single further drop.
	signalDrop(t, d, "MSFT")
	signalDrop(t, d, "AAPL")
	if col.count() != 2 {
		t.Fatalf("emissions = %d, want 2", col.count())
	}
	if got := col.last().Bindings["t"]; !datum.Equal(got, datum.Str("MSFT")) {
		t.Fatalf("second firing t = %v, want MSFT", got)
	}
}

func TestDetectWithinSequence(t *testing.T) {
	d, col, clk := setup()
	if _, err := d.Define(mustParse(t,
		"within(external(A), external(B), 30s where k=$v)")); err != nil {
		t.Fatal(err)
	}
	args := func(key string) map[string]datum.Value {
		return map[string]datum.Value{"k": datum.Str(key)}
	}
	// In-window completion fires.
	d.SignalExternal("A", 0, args("x"))
	clk.Advance(10 * time.Second)
	d.SignalExternal("B", 0, args("x"))
	if col.count() != 1 {
		t.Fatalf("emissions = %d, want 1", col.count())
	}
	if got := col.last().Bindings["v"]; !datum.Equal(got, datum.Str("x")) {
		t.Fatalf("correlation binding v = %v, want x", got)
	}
	// Past-window completion does not: the partial expires first.
	d.SignalExternal("A", 0, args("y"))
	clk.Advance(31 * time.Second)
	d.SignalExternal("B", 0, args("y"))
	if col.count() != 1 {
		t.Fatalf("emissions = %d after expired pair, want 1", col.count())
	}
}

func TestDetectDuringInterval(t *testing.T) {
	d, col, _ := setup()
	if _, err := d.Define(mustParse(t,
		"during(external(Trade), external(Open), external(Close))")); err != nil {
		t.Fatal(err)
	}
	d.SignalExternal("Trade", 0, nil) // before the interval: ignored
	d.SignalExternal("Open", 0, nil)
	d.SignalExternal("Trade", 0, nil)
	d.SignalExternal("Trade", 0, nil)
	if col.count() != 0 {
		t.Fatalf("emitted before interval end: %d", col.count())
	}
	d.SignalExternal("Close", 0, nil)
	if col.count() != 1 {
		t.Fatalf("emissions = %d, want 1 at interval end", col.count())
	}
	if got := col.last().Bindings["cep_count"]; !datum.Equal(got, datum.Int(2)) {
		t.Fatalf("cep_count = %v, want 2", got)
	}
}

func TestDetectSlidingWindowOverDatabase(t *testing.T) {
	// A count window over a primitive database event, driven through
	// SignalDatabase — the cep layer composes with DML signals, not
	// just external ones.
	d, col, _ := setup()
	if _, err := d.Define(mustParse(t, "sliding(modify(Stock), 3)")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.SignalDatabase(OpModify, "Stock", lock.TxnID(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if col.count() != 3 {
		t.Fatalf("emissions = %d, want 3 (offers 3,4,5 each complete a window)", col.count())
	}
}

func TestCEPGCTimerReclaimsAndRearms(t *testing.T) {
	d, col, clk := setup()
	if _, err := d.Define(mustParse(t,
		"within(external(A), external(B), 10s where k=$v)")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d.SignalExternal("A", 0, map[string]datum.Value{
			"k": datum.Str(fmt.Sprintf("key-%d", i)),
		})
	}
	if st := d.Stats(); st.CEPPartials != 5 || st.CEPInstances != 5 {
		t.Fatalf("before GC: partials=%d instances=%d, want 5/5", st.CEPPartials, st.CEPInstances)
	}
	// The sweep timer runs inside Advance on the virtual clock. By
	// +25s two sweeps have run; the second (at +20s) sees every partial
	// strictly older than the 10s window and reclaims all of them.
	clk.Advance(25 * time.Second)
	st := d.Stats()
	if st.CEPPartials != 0 || st.CEPInstances != 0 {
		t.Fatalf("after GC: partials=%d instances=%d, want 0/0", st.CEPPartials, st.CEPInstances)
	}
	if st.CEPExpired != 5 {
		t.Fatalf("CEPExpired = %d, want 5", st.CEPExpired)
	}
	// The timer re-armed: a second orphan generation is reclaimed too.
	d.SignalExternal("A", 0, map[string]datum.Value{"k": datum.Str("late")})
	clk.Advance(25 * time.Second)
	st = d.Stats()
	if st.CEPExpired != 6 || st.CEPPartials != 0 {
		t.Fatalf("after second GC: expired=%d partials=%d, want 6/0", st.CEPExpired, st.CEPPartials)
	}
	if col.count() != 0 {
		t.Fatalf("unexpected emissions: %d", col.count())
	}
}

func TestCEPDisableEnableDelete(t *testing.T) {
	d, col, clk := setup()
	id, err := d.Define(mustParse(t,
		"count(external(PriceDrop) where ticker=$t) >= 2 within 1m0s"))
	if err != nil {
		t.Fatal(err)
	}
	signalDrop(t, d, "AAPL")
	d.Disable(id)
	// Disabled: signals are ignored but accumulated state survives,
	// like the or/seq/and automata.
	signalDrop(t, d, "AAPL")
	if col.count() != 0 {
		t.Fatalf("disabled template emitted: %d", col.count())
	}
	d.Enable(id)
	signalDrop(t, d, "AAPL")
	if col.count() != 1 {
		t.Fatalf("emissions = %d after enable, want 1", col.count())
	}
	d.Delete(id)
	if n := signalDrop(t, d, "AAPL"); n != 0 {
		t.Fatalf("deleted template still emits: %d", n)
	}
	if got := d.Subscriptions(); got != 0 {
		t.Fatalf("subscriptions leaked after Delete: %d", got)
	}
	if st := d.Stats(); st.CEPTemplates != 0 {
		t.Fatalf("CEPTemplates = %d after Delete, want 0", st.CEPTemplates)
	}
	// The GC timer died with the subscription.
	if clk.PendingTimers() != 0 {
		t.Fatalf("pending timers after Delete: %d", clk.PendingTimers())
	}
}

func TestDisableKeepsState(t *testing.T) {
	// A disabled composite's parts stop before its template: a partial
	// match opened before Disable completes after Enable.
	for _, src := range []string{
		"within(external(A), external(B), 1h0m0s where k=$v)",
		"seq(external(A), external(B))",
		"and(external(A), external(B))",
	} {
		d, col, clk := setup()
		id, err := d.Define(mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		args := map[string]datum.Value{"k": datum.Str("a")}
		d.SignalExternal("A", 0, args)
		d.Disable(id)
		clk.Advance(time.Second)
		d.SignalExternal("B", 0, args)
		if col.count() != 0 {
			t.Fatalf("%s: disabled composite fired", src)
		}
		d.Enable(id)
		d.SignalExternal("B", 0, args)
		if col.count() != 1 {
			t.Fatalf("%s: partial did not survive disable/enable: %d emissions", src, col.count())
		}
	}
}

func TestCEPStatsAndShardInstances(t *testing.T) {
	d, _, _ := setup()
	if _, err := d.Define(mustParse(t,
		"count(external(PriceDrop) where ticker=$t) >= 100 within 1h0m0s")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Define(mustParse(t, "sliding(external(Tick), 1000)")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		signalDrop(t, d, fmt.Sprintf("T%03d", i))
	}
	d.SignalExternal("Tick", 0, nil)
	st := d.Stats()
	if st.CEPTemplates != 2 {
		t.Fatalf("CEPTemplates = %d, want 2", st.CEPTemplates)
	}
	if st.CEPInstances != 65 { // 64 tickers + the uncorrelated Tick instance
		t.Fatalf("CEPInstances = %d, want 65", st.CEPInstances)
	}
	if st.CEPPartials != 65 {
		t.Fatalf("CEPPartials = %d, want 65", st.CEPPartials)
	}
	per := d.CEPShardInstances()
	total, nonzero := 0, 0
	for _, n := range per {
		total += n
		if n > 0 {
			nonzero++
		}
	}
	if total != 65 {
		t.Fatalf("shard instance sum = %d, want 65", total)
	}
	if nonzero < 2 {
		t.Fatalf("instances concentrated in %d shard(s); want spread over >= 2", nonzero)
	}
}

func TestCEPConcurrentExternalSignals(t *testing.T) {
	// The lock-free fast path: concurrent signalers for distinct
	// correlation keys advance the sharded automata in parallel.
	// Every ticker sees exactly `perKey` drops, so with threshold
	// `perKey` each fires exactly once regardless of interleaving.
	d, col, _ := setup()
	const workers, tickers, perKey = 8, 32, 10
	if _, err := d.Define(mustParse(t, fmt.Sprintf(
		"count(external(PriceDrop) where ticker=$t) >= %d within 1h0m0s", perKey))); err != nil {
		t.Fatal(err)
	}
	var stream []string
	for i := 0; i < tickers; i++ {
		for j := 0; j < perKey; j++ {
			stream = append(stream, fmt.Sprintf("T%03d", i))
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(stream), func(i, j int) {
		stream[i], stream[j] = stream[j], stream[i]
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				d.SignalExternal("PriceDrop", 0, map[string]datum.Value{
					"ticker": datum.Str(stream[i]),
				})
			}
		}(w)
	}
	wg.Wait()
	if col.count() != tickers {
		t.Fatalf("emissions = %d, want exactly %d (one per ticker)", col.count(), tickers)
	}
	seen := map[string]int{}
	col.mu.Lock()
	for _, sig := range col.sigs {
		seen[sig.Bindings["t"].String()]++
	}
	col.mu.Unlock()
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("ticker %v fired %d times, want 1", k, n)
		}
	}
	if st := d.Stats(); st.CEPFirings != tickers || st.CEPPartials != 0 {
		t.Fatalf("stats firings=%d partials=%d, want %d/0", st.CEPFirings, st.CEPPartials, tickers)
	}
}

func TestCEPInsideEnclosingComposite(t *testing.T) {
	// A cep operator nested under or(): firings route upward through
	// the ordinary composite delivery path (not the fast path).
	d, col, _ := setup()
	if _, err := d.Define(mustParse(t,
		"or(sliding(external(Tick), 2), external(Halt))")); err != nil {
		t.Fatal(err)
	}
	d.SignalExternal("Tick", 0, nil)
	if col.count() != 0 {
		t.Fatalf("premature emission: %d", col.count())
	}
	d.SignalExternal("Tick", 0, nil)
	if col.count() != 1 {
		t.Fatalf("emissions = %d after window filled, want 1", col.count())
	}
	d.SignalExternal("Halt", 0, nil)
	if col.count() != 2 {
		t.Fatalf("emissions = %d after or-branch, want 2", col.count())
	}
}
