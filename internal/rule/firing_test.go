package rule_test

// Tests of the firing runner (firing.go): where firings run, and how
// their spans find their anchors on the transaction records.

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/rule"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestEveryGoStatementIsInFiring: firing.go is the one place the
// package starts goroutines, so every concurrent firing goes through
// its runner.
func TestEveryGoStatementIsInFiring(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	inFiring := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if name == "firing.go" {
					inFiring++
				} else {
					t.Errorf("%s: go statement outside firing.go", fset.Position(g.Pos()))
				}
			}
			return true
		})
	}
	if inFiring == 0 {
		t.Fatal("no go statement found in firing.go: the walk saw nothing")
	}
}

// goid returns the calling goroutine's id, the number on the first line
// of its stack trace ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// firingEngine returns an engine with the Stock and Audit classes, one
// Stock object, and a no-op "noop" callback.
func firingEngine(t *testing.T) (*core.Engine, datum.OID) {
	t.Helper()
	e, _ := workload.MustEngine()
	t.Cleanup(func() { e.Close() })
	if err := workload.DefineBase(e); err != nil {
		t.Fatal(err)
	}
	oids, err := workload.SeedStocks(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterCall("noop", func(*txn.Txn, map[string]datum.Value) error { return nil })
	return e, oids[0]
}

func mustRule(t *testing.T, e *core.Engine, def rule.Def) {
	t.Helper()
	if _, err := e.CreateRule(def); err != nil {
		t.Fatal(err)
	}
}

func modify(t *testing.T, e *core.Engine, tx *txn.Txn, oid datum.OID, price float64) {
	t.Helper()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(price)}); err != nil {
		t.Fatal(err)
	}
}

// TestWaveOfOneRunsInline: the action of a lone immediate firing runs
// on the goroutine of the operation that raised the event, which is
// suspended until the firing ends anyway.
func TestWaveOfOneRunsInline(t *testing.T) {
	e, oid := firingEngine(t)
	var ran string
	e.RegisterCall("where", func(*txn.Txn, map[string]datum.Value) error {
		ran = goid()
		return nil
	})
	mustRule(t, e, rule.Def{
		Name: "inline", Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: "where"}},
		EC:     "immediate", CA: "immediate",
	})
	tx := e.Begin()
	modify(t, e, tx, oid, 7)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if here := goid(); ran != here {
		t.Fatalf("the action ran on goroutine %q, the modify on %q", ran, here)
	}
}

// TestSpanBinding checks, through real firings, the rule by which a
// firing span finds its parent: the innermost open span on the
// trigger's transaction or an ancestor's.
func TestSpanBinding(t *testing.T) {
	t.Run("CascadeNestsUnderOpenAction", func(t *testing.T) {
		// lvl1's action raises two create(Audit) signals. Each nests
		// under lvl1's action span: the first cascade's signal span
		// neither displaces the action span from its transaction nor,
		// once ended, takes the second cascade's place.
		e, oid := firingEngine(t)
		note := map[string]string{"note": "'1'"}
		mustRule(t, e, rule.Def{
			Name: "lvl1", Event: "modify(Stock)",
			Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit", Attrs: note},
				{Kind: rule.StepCreate, Class: "Audit", Attrs: note}},
			EC: "immediate", CA: "immediate",
		})
		mustRule(t, e, rule.Def{
			Name: "lvl2", Event: "create(Audit)",
			Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
			EC:     "immediate", CA: "immediate",
		})
		tx := e.Begin()
		modify(t, e, tx, oid, 7)
		tx.Commit()
		tree := e.Obs.Tracer().Last(1)[0]
		var act *obs.SpanSnapshot
		tree.Walk(func(n *obs.SpanSnapshot, _ int) {
			if n.Kind == "action" && n.Name == "lvl1" {
				act = n
			}
		})
		if tree.Kind != "signal" || tree.Txn != uint64(tx.ID()) || act == nil {
			t.Fatalf("tree = %+v, want a signal root on txn %d over lvl1's action", tree, tx.ID())
		}
		if len(act.Children) != 2 {
			t.Fatalf("lvl1's action has %d children, want the two cascaded signals: %+v", len(act.Children), act.Children)
		}
		for _, c := range act.Children {
			if c.Kind != "signal" || c.Txn != act.Txn || len(c.Children) != 2 {
				t.Fatalf("cascade = %+v, want a signal on txn %d with lvl2's cond and action", c, act.Txn)
			}
		}
	})

	t.Run("SecondSignalStartsNewRoot", func(t *testing.T) {
		// Two signals in one client transaction: the first tree has
		// ended before the second signal, so the second is a root.
		e, oid := firingEngine(t)
		mustRule(t, e, workload.AuditRuleDef("audit", "immediate", "immediate"))
		tx := e.Begin()
		modify(t, e, tx, oid, 7)
		if sp := tx.Span.Load(); sp == nil || !sp.Ended() {
			t.Fatalf("the first signal's span on the client transaction: %v, want ended", sp)
		}
		modify(t, e, tx, oid, 8)
		tx.Commit()
		trees := e.Obs.Tracer().Last(0)
		if len(trees) != 2 {
			t.Fatalf("%d firing trees, want one per signal: %+v", len(trees), trees)
		}
		for _, tree := range trees {
			if tree.Kind != "signal" || tree.Txn != uint64(tx.ID()) || tree.Depth() != 2 {
				t.Fatalf("trees = %+v, want two signal roots on txn %d, each over one cond and one action", trees, tx.ID())
			}
		}
	})

	t.Run("EndedSpanAnchorsNothing", func(t *testing.T) {
		// A deferred firing is queued under the signal span, which ends
		// when the modify returns; the deferred drain at commit then
		// roots a tree of its own instead of joining the ended one.
		e, oid := firingEngine(t)
		mustRule(t, e, workload.AuditRuleDef("audit", "deferred", "immediate"))
		tx := e.Begin()
		modify(t, e, tx, oid, 7)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		trees := e.Obs.Tracer().Last(0)
		if len(trees) != 2 {
			t.Fatalf("%d firing trees, want the signal's and the drain's: %+v", len(trees), trees)
		}
		drain, signal := trees[0], trees[1]
		if signal.Kind != "signal" || len(signal.Children) != 1 || signal.Children[0].Kind != "deferred-queue" {
			t.Fatalf("signal tree = %+v, want only the deferred-queue mark", signal)
		}
		if drain.Kind != "commit" || drain.Txn != uint64(tx.ID()) {
			t.Fatalf("drain tree = %+v, want a commit root on txn %d", drain, tx.ID())
		}
	})
}

// The worker set: detached firings queue on one bounded FIFO and run on
// a fixed set of workers; a firing that finds the FIFO full runs on a
// goroutine of its own.

// tickEngine returns an engine with the external events Gate and
// Tick(seq), a separate rule "gate" on Gate whose action blocks until
// the returned release channel is closed, and a separate rule "tick"
// on Tick whose action calls onTick with the signal's seq.
func tickEngine(t *testing.T, onTick func(seq int64)) (e *core.Engine, release chan struct{}, gated chan struct{}) {
	t.Helper()
	e, _ = firingEngine(t)
	release, gated = make(chan struct{}), make(chan struct{}, 64)
	for _, ev := range [][]string{{"Gate"}, {"Tick", "seq"}} {
		if err := e.DefineEvent(ev[0], ev[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	e.RegisterCall("gate", func(*txn.Txn, map[string]datum.Value) error {
		gated <- struct{}{}
		<-release
		return nil
	})
	e.RegisterCall("tick", func(_ *txn.Txn, args map[string]datum.Value) error {
		onTick(args["seq"].AsInt())
		return nil
	})
	mustRule(t, e, separateCall("gate", "Gate"))
	mustRule(t, e, separateCall("tick", "Tick"))
	return e, release, gated
}

// separateCall is a separate rule on the external event ev whose action
// calls the callback named name.
func separateCall(name, ev string) rule.Def {
	return rule.Def{Name: name, Event: "external(" + ev + ")",
		Action: []rule.Step{{Kind: rule.StepCall, Fn: name}}, EC: "separate", CA: "immediate"}
}

func signal(t *testing.T, e *core.Engine, name string, args map[string]datum.Value) {
	t.Helper()
	if err := e.SignalEvent(nil, name, args); err != nil {
		t.Fatal(err)
	}
}

// hold signals Gate n times and returns once n gate actions are
// running, each holding a worker or an overflow goroutine.
func hold(t *testing.T, e *core.Engine, gated chan struct{}, n int) {
	t.Helper()
	for range n {
		signal(t, e, "Gate", nil)
	}
	for range n {
		select {
		case <-gated:
		case <-time.After(10 * time.Second):
			t.Fatal("a gate action never started")
		}
	}
}

// quiesceAsync starts e.Quiesce and returns a channel closed when it
// returns.
func quiesceAsync(e *core.Engine) chan struct{} {
	done := make(chan struct{})
	go func() {
		e.Quiesce()
		close(done)
	}()
	return done
}

// mustWait fails unless done closes within ten seconds.
func mustWait(t *testing.T, done chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// mustBlock fails if done closes within 50 ms.
func mustBlock(t *testing.T, done chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while firings were still pending", what)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestQuiesceWaitsForQueuedFirings: with the one worker held, firings
// wait in the FIFO, and Quiesce waits for them as for running ones.
func TestQuiesceWaitsForQueuedFirings(t *testing.T) {
	var ran atomic.Int64
	e, release, gated := tickEngine(t, func(int64) { ran.Add(1) })
	rule.SetWorkers(e.Rules, 1, 16)
	hold(t, e, gated, 1)
	for i := range 5 {
		signal(t, e, "Tick", map[string]datum.Value{"seq": datum.Int(int64(i))})
	}
	if st := e.Stats().Rules; st.QueueDepth != 5 || st.Queued != 6 || st.Overflowed != 0 {
		t.Fatalf("queue depth %d, queued %d, overflowed %d; want 5 waiting, 6 queued, none overflowed",
			st.QueueDepth, st.Queued, st.Overflowed)
	}
	done := quiesceAsync(e)
	mustBlock(t, done, "Quiesce")
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d queued firings ran while the only worker was held", n)
	}
	close(release)
	mustWait(t, done, "Quiesce")
	if n := ran.Load(); n != 5 {
		t.Fatalf("%d tick firings ran, want 5", n)
	}
	if h := e.Obs.Snapshot().Hist["firing_queue_wait"]; h.Count != 6 {
		t.Fatalf("firing_queue_wait holds %d observations, want one per queued firing (6)", h.Count)
	}
}

// TestFIFOOrder: the firings of one rule on one signal source leave the
// FIFO in the order they entered it.
func TestFIFOOrder(t *testing.T) {
	const n = 100
	var order []int64
	e, release, gated := tickEngine(t, func(seq int64) { order = append(order, seq) })
	rule.SetWorkers(e.Rules, 1, n)
	hold(t, e, gated, 1)
	for i := range n {
		signal(t, e, "Tick", map[string]datum.Value{"seq": datum.Int(int64(i))})
	}
	close(release)
	e.Quiesce()
	if len(order) != n {
		t.Fatalf("%d firings ran, want %d", len(order), n)
	}
	for i, seq := range order {
		if seq != int64(i) {
			t.Fatalf("firing %d carried seq %d: dequeue order %v", i, seq, order)
		}
	}
}

// TestFullFIFOOverflows: with every worker held and the FIFO full,
// further firings run on goroutines of their own. Each firing runs
// exactly once, and Quiesce waits for all of them.
func TestFullFIFOOverflows(t *testing.T) {
	const workers, slots, n = 2, 2, 20
	var mu sync.Mutex
	runs := map[int64]int{}
	e, release, gated := tickEngine(t, func(seq int64) {
		mu.Lock()
		runs[seq]++
		mu.Unlock()
	})
	rule.SetWorkers(e.Rules, workers, slots)
	hold(t, e, gated, workers)
	for i := range n {
		signal(t, e, "Tick", map[string]datum.Value{"seq": datum.Int(int64(i))})
	}
	st := e.Stats().Rules
	if st.Queued != workers+slots || st.Overflowed != n-slots {
		t.Fatalf("queued %d, overflowed %d; want %d queued and %d overflowed",
			st.Queued, st.Overflowed, workers+slots, n-slots)
	}
	done := quiesceAsync(e)
	mustBlock(t, done, "Quiesce")
	close(release)
	mustWait(t, done, "Quiesce")
	if len(runs) != n {
		t.Fatalf("%d distinct firings ran, want %d: %v", len(runs), n, runs)
	}
	for seq, k := range runs {
		if k != 1 {
			t.Fatalf("firing %d ran %d times", seq, k)
		}
	}
	var prom bytes.Buffer
	if err := e.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hipac_rule_firing_queued_total 4\n", "hipac_rule_firing_overflow_total 18\n",
		"hipac_rule_firing_queue_depth 0\n", "hipac_firing_queue_wait_duration_seconds_count 4\n"} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("the Prometheus output lacks %q:\n%s", want, prom.String())
		}
	}
}

// TestCascadeFromBusyWorker: a separate action whose signals trigger
// another separate rule finishes even though it holds the only worker
// and the FIFO fills: a detach from a worker never waits for room.
func TestCascadeFromBusyWorker(t *testing.T) {
	const k = 5
	var ran atomic.Int64
	e, _, _ := tickEngine(t, func(int64) { ran.Add(1) })
	rule.SetWorkers(e.Rules, 1, 1)
	if err := e.DefineEvent("Burst"); err != nil {
		t.Fatal(err)
	}
	burst := make([]rule.Step, k)
	for i := range burst {
		burst[i] = rule.Step{Kind: rule.StepSignal, Event: "Tick", Args: map[string]string{"seq": strconv.Itoa(i)}}
	}
	mustRule(t, e, rule.Def{Name: "burst", Event: "external(Burst)", Action: burst, EC: "separate", CA: "immediate"})
	signal(t, e, "Burst", nil)
	mustWait(t, quiesceAsync(e), "Quiesce")
	// The burst takes the empty slot and the worker; its first tick
	// takes the slot again, the other four find it full.
	if st := e.Stats().Rules; ran.Load() != k || st.Queued != 2 || st.Overflowed != k-1 {
		t.Fatalf("%d ticks ran, queued %d, overflowed %d; want %d, 2, %d", ran.Load(), st.Queued, st.Overflowed, k, k-1)
	}
}

// TestCloseStopsWorkers: Close leaves no worker goroutine behind.
func TestCloseStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	e, _ := workload.MustEngine()
	if err := e.DefineEvent("Tick", "seq"); err != nil {
		t.Fatal(err)
	}
	e.RegisterCall("tick", func(*txn.Txn, map[string]datum.Value) error { return nil })
	mustRule(t, e, separateCall("tick", "Tick"))
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines with the engine open, %d before: no workers started", n, base)
	}
	for i := range 50 {
		signal(t, e, "Tick", map[string]datum.Value{"seq": datum.Int(int64(i))})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before Open:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
