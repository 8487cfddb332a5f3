package event

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/datum"
	"repro/internal/lock"
)

var epoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// collector gathers emissions for assertions.
type collector struct {
	mu   sync.Mutex
	sigs []Signal
	ids  []SubID
}

func (c *collector) emit(id SubID, sig Signal) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ids = append(c.ids, id)
	c.sigs = append(c.sigs, sig)
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sigs)
}

func (c *collector) last() Signal {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sigs[len(c.sigs)-1]
}

func setup() (*Detectors, *collector, *clock.Virtual) {
	col := &collector{}
	clk := clock.NewVirtual(epoch)
	d := New(clk, col.emit)
	return d, col, clk
}

func TestSpecStringRoundTrip(t *testing.T) {
	cases := []string{
		"modify(Stock)",
		"create(*)",
		"commit()",
		"abort()",
		"external(TradeExecuted)",
		"after(5s)",
		"every(1m0s)",
		"or(modify(Stock), delete(Stock))",
		"seq(modify(Stock), external(Trade))",
		"and(commit(), external(X))",
		"every(commit(), 10s)",
		"after(external(Open), 1h0m0s)",
		"within(external(A), external(B), 30s)",
		"within(modify(Stock), external(Confirm), external(Settle), 5m0s where ticker=$t)",
		"during(external(Trade), external(Open), external(Close))",
		"during(modify(Stock), external(Open), external(Close) where acct=$a)",
		"sliding(external(Tick), 5)",
		"tumbling(external(Tick), 100 where ticker=$t)",
		"count(external(PriceDrop)) >= 3 within 1m0s",
		"count(external(PriceDrop) where ticker=$t) >= 10 within 1m0s",
	}
	for _, src := range cases {
		spec, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		back, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, spec.String(), err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("round trip %q -> %q changed spec", src, spec.String())
		}
	}
}

func TestParseAbsolute(t *testing.T) {
	spec, err := Parse("at(2026-07-06T09:30:00Z)")
	if err != nil {
		t.Fatal(err)
	}
	tmp := spec.(Temporal)
	if tmp.Kind != Absolute || !tmp.At.Equal(epoch.Add(30*time.Minute)) {
		t.Fatalf("parsed %+v", tmp)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "bogus(X)", "modify(", "or(modify(X))", "external()",
		"at(notatime)", "after(xyz)", "modify(Stock) trailing",
		"seq(modify(X), )",
		"within(external(A), 30s)",                    // needs >= 2 parts
		"within(external(A), external(B))",            // missing duration
		"during(external(A), external(B))",            // needs 3 parts
		"sliding(external(A), 0)",                     // count must be >= 1
		"tumbling(external(A), 9999999999)",           // count over the cap
		"count(external(A)) >= 3",                     // missing within
		"count(external(A)) > 3 within 1m",            // only >= supported
		"count(external(A)) >= 0 within 1m",           // min must be >= 1
		"count(external(A)) >= 3 within -1s",          // window must be positive
		"count(external(A) where x=y) >= 3 within 1m", // var needs $
		"every(0s)", "after(-5s)", "every(external(X), 0s)", // Define rejects them
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDatabaseEventMatching(t *testing.T) {
	d, col, _ := setup()
	idExact, _ := d.Define(Database{Op: OpModify, Class: "Stock"})
	idAnyClass, _ := d.Define(Database{Op: OpModify})
	idAnyOp, _ := d.Define(Database{Op: OpAny, Class: "Stock"})
	d.Define(Database{Op: OpDelete, Class: "Stock"}) // must not match

	d.SignalDatabase(OpModify, "Stock", 7, map[string]datum.Value{"oid": datum.ID(3)})
	if col.count() != 3 {
		t.Fatalf("emitted %d signals, want 3 (exact, any-class, any-op)", col.count())
	}
	got := map[SubID]bool{}
	for _, id := range col.ids {
		got[id] = true
	}
	for _, id := range []SubID{idExact, idAnyClass, idAnyOp} {
		if !got[id] {
			t.Errorf("subscription %d did not fire", id)
		}
	}
	if sig := col.last(); sig.Txn != 7 || sig.Bindings["oid"].AsOID() != 3 {
		t.Errorf("signal = %+v", sig)
	}
}

func TestDatabaseNonMatching(t *testing.T) {
	d, col, _ := setup()
	d.Define(Database{Op: OpModify, Class: "Stock"})
	d.SignalDatabase(OpModify, "Bond", 1, nil)
	d.SignalDatabase(OpCreate, "Stock", 1, nil)
	if col.count() != 0 {
		t.Fatalf("non-matching signals fired %d emissions", col.count())
	}
}

func TestExternalEvents(t *testing.T) {
	d, col, _ := setup()
	id, _ := d.Define(External{Name: "TradeExecuted"})
	n, err := d.SignalExternal("TradeExecuted", 9, map[string]datum.Value{"qty": datum.Int(500)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || col.count() != 1 {
		t.Fatalf("n=%d count=%d", n, col.count())
	}
	if col.ids[0] != id || col.last().Bindings["qty"].AsInt() != 500 {
		t.Fatalf("signal = %+v", col.last())
	}
	if n, _ := d.SignalExternal("Unknown", 0, nil); n != 0 {
		t.Fatalf("unknown external fired %d", n)
	}
}

func TestAbsoluteTemporal(t *testing.T) {
	d, col, clk := setup()
	d.Define(Temporal{Kind: Absolute, At: epoch.Add(time.Minute)})
	clk.Advance(59 * time.Second)
	if col.count() != 0 {
		t.Fatal("fired early")
	}
	clk.Advance(2 * time.Second)
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
	sig := col.last()
	if !sig.Bindings["time"].AsTime().Equal(epoch.Add(time.Minute)) {
		t.Fatalf("time binding = %v", sig.Bindings["time"])
	}
	clk.Advance(time.Hour)
	if col.count() != 1 {
		t.Fatal("absolute event fired more than once")
	}
}

func TestPastAbsoluteNeverFires(t *testing.T) {
	d, col, clk := setup()
	d.Define(Temporal{Kind: Absolute, At: epoch.Add(-time.Hour)})
	clk.Advance(time.Hour)
	if col.count() != 0 {
		t.Fatal("past absolute event fired")
	}
}

func TestRelativeTemporal(t *testing.T) {
	d, col, clk := setup()
	d.Define(Temporal{Kind: Relative, Offset: 10 * time.Second})
	clk.Advance(10 * time.Second)
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
}

func TestPeriodicTemporal(t *testing.T) {
	d, col, clk := setup()
	d.Define(Temporal{Kind: Periodic, Period: time.Second})
	clk.Advance(5 * time.Second)
	if col.count() != 5 {
		t.Fatalf("count = %d, want 5", col.count())
	}
	if col.last().Bindings["count"].AsInt() != 5 {
		t.Fatalf("count binding = %v", col.last().Bindings["count"])
	}
}

func TestRelativeWithBaseline(t *testing.T) {
	d, col, clk := setup()
	d.Define(Temporal{Kind: Relative, Offset: 30 * time.Second, Baseline: External{Name: "Open"}})
	clk.Advance(time.Minute)
	if col.count() != 0 {
		t.Fatal("fired before baseline")
	}
	d.SignalExternal("Open", 0, nil)
	clk.Advance(29 * time.Second)
	if col.count() != 0 {
		t.Fatal("fired before offset elapsed")
	}
	clk.Advance(2 * time.Second)
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
}

func TestPeriodicWithBaselineRearms(t *testing.T) {
	d, col, clk := setup()
	d.Define(Temporal{Kind: Periodic, Period: 10 * time.Second, Baseline: External{Name: "Open"}})
	d.SignalExternal("Open", 0, nil)
	clk.Advance(25 * time.Second)
	if col.count() != 2 {
		t.Fatalf("count = %d, want 2", col.count())
	}
	// A new baseline occurrence re-anchors the period.
	d.SignalExternal("Open", 0, nil)
	clk.Advance(10 * time.Second)
	if col.count() != 3 {
		t.Fatalf("count = %d, want 3", col.count())
	}
}

func TestDisjunction(t *testing.T) {
	d, col, _ := setup()
	id, err := d.Define(Composite{Op: Disjunction, Parts: []Spec{
		Database{Op: OpModify, Class: "Stock"},
		External{Name: "Alert"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	d.SignalDatabase(OpModify, "Stock", 1, map[string]datum.Value{"k": datum.Int(1)})
	d.SignalExternal("Alert", 2, map[string]datum.Value{"k": datum.Int(2)})
	if col.count() != 2 {
		t.Fatalf("count = %d", col.count())
	}
	for _, gotID := range col.ids {
		if gotID != id {
			t.Fatal("emission under wrong subscription")
		}
	}
	if col.sigs[0].Bindings["k"].AsInt() != 1 || col.sigs[1].Bindings["k"].AsInt() != 2 {
		t.Fatal("disjunction bindings not passed through")
	}
}

func TestSequence(t *testing.T) {
	d, col, _ := setup()
	d.Define(Composite{Op: Sequence, Parts: []Spec{
		External{Name: "A"},
		External{Name: "B"},
	}})
	d.SignalExternal("B", 0, nil) // out of order: ignored
	if col.count() != 0 {
		t.Fatal("sequence fired on out-of-order part")
	}
	d.SignalExternal("A", 0, map[string]datum.Value{"a": datum.Int(1), "shared": datum.Int(10)})
	if col.count() != 0 {
		t.Fatal("sequence fired after first part only")
	}
	d.SignalExternal("B", 5, map[string]datum.Value{"b": datum.Int(2), "shared": datum.Int(20)})
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
	sig := col.last()
	if sig.Txn != 5 {
		t.Fatalf("composite txn = %d, want the completing signal's txn", sig.Txn)
	}
	if sig.Bindings["a"].AsInt() != 1 || sig.Bindings["b"].AsInt() != 2 {
		t.Fatal("merged bindings missing parts")
	}
	if sig.Bindings["shared"].AsInt() != 20 {
		t.Fatal("later part must win binding collisions")
	}
	// Automaton reset: a lone B again does nothing.
	d.SignalExternal("B", 0, nil)
	if col.count() != 1 {
		t.Fatal("sequence did not reset after firing")
	}
}

func TestSequenceRestartOnFreshFirst(t *testing.T) {
	d, col, _ := setup()
	d.Define(Composite{Op: Sequence, Parts: []Spec{
		External{Name: "A"},
		External{Name: "B"},
	}})
	d.SignalExternal("A", 0, map[string]datum.Value{"v": datum.Int(1)})
	d.SignalExternal("A", 0, map[string]datum.Value{"v": datum.Int(2)})
	d.SignalExternal("B", 0, nil)
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
	if col.last().Bindings["v"].AsInt() != 2 {
		t.Fatal("restart must keep the freshest first-part bindings")
	}
}

func TestThreePartSequence(t *testing.T) {
	d, col, _ := setup()
	d.Define(MustParse("seq(external(A), external(B), external(C))"))
	d.SignalExternal("A", 0, nil)
	d.SignalExternal("C", 0, nil) // skip: ignored
	d.SignalExternal("B", 0, nil)
	d.SignalExternal("C", 0, nil)
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
}

func TestConjunction(t *testing.T) {
	d, col, _ := setup()
	d.Define(Composite{Op: Conjunction, Parts: []Spec{
		External{Name: "A"},
		External{Name: "B"},
	}})
	d.SignalExternal("B", 0, map[string]datum.Value{"b": datum.Int(2)}) // any order
	d.SignalExternal("A", 0, map[string]datum.Value{"a": datum.Int(1)})
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
	sig := col.last()
	if sig.Bindings["a"].AsInt() != 1 || sig.Bindings["b"].AsInt() != 2 {
		t.Fatal("conjunction bindings incomplete")
	}
	// Resets afterwards.
	d.SignalExternal("A", 0, nil)
	if col.count() != 1 {
		t.Fatal("conjunction did not reset")
	}
}

func TestConjunctionNilBindings(t *testing.T) {
	// Regression: parts signalled with nil bindings must still count
	// as seen (CloneMap(nil) is nil).
	d, col, _ := setup()
	d.Define(Composite{Op: Conjunction, Parts: []Spec{
		External{Name: "A"},
		External{Name: "B"},
	}})
	d.SignalExternal("A", 0, nil)
	d.SignalExternal("B", 0, nil)
	if col.count() != 1 {
		t.Fatalf("count = %d; nil-bindings conjunction must fire", col.count())
	}
}

func TestNestedComposite(t *testing.T) {
	// seq(or(A,B), C): either A or B, then C.
	d, col, _ := setup()
	d.Define(MustParse("seq(or(external(A), external(B)), external(C))"))
	d.SignalExternal("B", 0, nil)
	d.SignalExternal("C", 0, nil)
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
	d.SignalExternal("C", 0, nil)
	if col.count() != 1 {
		t.Fatal("fired without fresh or() part")
	}
}

func TestDisableEnable(t *testing.T) {
	d, col, _ := setup()
	id, _ := d.Define(External{Name: "E"})
	d.Disable(id)
	d.SignalExternal("E", 0, nil)
	if col.count() != 0 {
		t.Fatal("disabled subscription fired")
	}
	d.Enable(id)
	d.SignalExternal("E", 0, nil)
	if col.count() != 1 {
		t.Fatal("enabled subscription did not fire")
	}
}

func TestDisableStopsTemporalTimer(t *testing.T) {
	d, col, clk := setup()
	id, _ := d.Define(Temporal{Kind: Periodic, Period: time.Second})
	clk.Advance(2 * time.Second)
	if col.count() != 2 {
		t.Fatalf("count = %d", col.count())
	}
	d.Disable(id)
	clk.Advance(5 * time.Second)
	if col.count() != 2 {
		t.Fatal("disabled periodic kept firing")
	}
	d.Enable(id)
	clk.Advance(time.Second)
	if col.count() != 3 {
		t.Fatal("re-enabled periodic did not resume")
	}
}

func TestDeleteStopsEverything(t *testing.T) {
	d, col, clk := setup()
	id, _ := d.Define(MustParse("or(external(E), every(1s))"))
	before := d.Subscriptions()
	if before != 3 { // composite + 2 parts
		t.Fatalf("Subscriptions = %d", before)
	}
	d.Delete(id)
	if d.Subscriptions() != 0 {
		t.Fatalf("Subscriptions after delete = %d", d.Subscriptions())
	}
	d.SignalExternal("E", 0, nil)
	clk.Advance(5 * time.Second)
	if col.count() != 0 {
		t.Fatal("deleted subscription fired")
	}
}

func TestStats(t *testing.T) {
	d, _, clk := setup()
	d.Define(External{Name: "E"})
	d.Define(Temporal{Kind: Relative, Offset: time.Second})
	d.SignalExternal("E", 0, nil)
	d.SignalDatabase(OpModify, "X", 0, nil)
	clk.Advance(time.Second)
	s := d.Stats()
	if s.ExternalSignals != 1 || s.DatabaseSignals != 1 || s.TemporalFirings != 1 || s.Emissions != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestManySubscriptionsNonMatchingCheap(t *testing.T) {
	// C10's premise: non-matching subscriptions must not be touched.
	d, col, _ := setup()
	for i := 0; i < 1000; i++ {
		d.Define(Database{Op: OpModify, Class: fmt.Sprintf("Class%d", i)})
	}
	d.SignalDatabase(OpModify, "Class500", 0, nil)
	if col.count() != 1 {
		t.Fatalf("count = %d", col.count())
	}
}

func TestConcurrentSignals(t *testing.T) {
	d, col, _ := setup()
	d.Define(External{Name: "E"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.SignalExternal("E", lock.TxnID(w), nil)
			}
		}(w)
	}
	wg.Wait()
	if col.count() != 800 {
		t.Fatalf("count = %d", col.count())
	}
}

func TestConcurrentCompositeSignals(t *testing.T) {
	// or/seq/and advance from eight goroutines at once while another
	// toggles a subscription: a disjunction passes every occurrence
	// through, and a sequence or conjunction of one event fires, but
	// never more often than the event is signalled.
	d, col, _ := setup()
	srcs := []string{"or(external(E), external(F))", "seq(external(E), external(E))",
		"and(external(E), external(E))", "external(G)"}
	ids := make([]SubID, len(srcs))
	for i, src := range srcs {
		id, err := d.Define(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-stop:
				return
			default:
				d.Disable(ids[3])
				d.Enable(ids[3])
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.SignalExternal("E", lock.TxnID(w), nil)
				d.SignalExternal("G", lock.TxnID(w), nil)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-toggled
	n := map[SubID]int{}
	col.mu.Lock()
	for _, id := range col.ids {
		n[id]++
	}
	col.mu.Unlock()
	if n[ids[0]] != 800 {
		t.Fatalf("or emitted %d times for 800 signals", n[ids[0]])
	}
	for _, i := range []int{1, 2} {
		if n[ids[i]] < 1 || n[ids[i]] > 800 {
			t.Fatalf("%s emitted %d times for 800 signals", srcs[i], n[ids[i]])
		}
	}
}

func TestSignalDeliveryTakesNoDetectorLock(t *testing.T) {
	// Delivery to a primitive, to or/seq/and and to a template nested in
	// or(...) completes while another goroutine holds d.mu.
	d, col, _ := setup()
	for _, src := range []string{"external(P)", "modify(Stock)", "or(external(O1), external(O2))",
		"seq(external(S1), external(S2))", "and(external(N1), external(N2))",
		"or(tumbling(external(T), 1), external(U))"} {
		if _, err := d.Define(MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	d.mu.Lock()
	go func() {
		err := d.SignalDatabase(OpModify, "Stock", 1, nil)
		for _, name := range []string{"P", "O1", "S1", "S2", "N2", "N1", "T"} {
			if _, e := d.SignalExternal(name, 1, nil); err == nil {
				err = e
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		d.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		d.mu.Unlock()
		<-done
		t.Fatal("signal delivery blocked on the detector lock")
	}
	if col.count() != 6 {
		t.Fatalf("emissions = %d, want 6", col.count())
	}
}

func TestSpecStrings(t *testing.T) {
	cases := map[string]Spec{
		"modify(Stock)": Database{Op: OpModify, Class: "Stock"},
		"anyop(*)":      Database{},
		"commit()":      Database{Op: OpCommit},
		"external(X)":   External{Name: "X"},
		"or(commit(), abort())": Composite{Op: Disjunction, Parts: []Spec{
			Database{Op: OpCommit}, Database{Op: OpAbort}}},
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if !strings.Contains((Temporal{Kind: Absolute, At: epoch}).String(), "2026") {
		t.Error("absolute String should include the time")
	}
}
