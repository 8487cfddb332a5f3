package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)                     // bucket 0 (<1µs)
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(1 * time.Microsecond)  // bucket 1 (<2µs)
	h.Observe(3 * time.Microsecond)  // bucket 2 (<4µs)
	h.Observe(100 * time.Millisecond)
	h.Observe(time.Hour) // overflow
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[2] != 1 {
		t.Fatalf("low buckets = %v", s.Buckets[:4])
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d", s.Buckets[NumBuckets-1])
	}
	if s.Mean() <= 0 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if q := s.Quantile(0.5); q > 8*time.Microsecond {
		t.Fatalf("p50 = %v, want a low bucket edge", q)
	}
	if q := s.Quantile(1.0); q < time.Second {
		t.Fatalf("p100 = %v, want the top finite edge", q)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if s := h.Snapshot(); s.Buckets[0] != 1 {
		t.Fatalf("negative duration not clamped to bucket 0: %v", s.Buckets[:2])
	}
}

func TestMetricsDisabled(t *testing.T) {
	o := New(Options{Disabled: true})
	tm := o.Metrics().Timer(HOp)
	tm.Done()
	o.Metrics().Observe(HSignal, time.Second)
	if s := o.Snapshot(); s.Enabled || s.Hist["op"].Count != 0 || s.Hist["signal"].Count != 0 {
		t.Fatalf("disabled metrics recorded: %+v", s)
	}
	if sp := o.Tracer().StartRoot("signal", "x", "", 1, 0); sp != nil {
		t.Fatal("disabled tracer returned a live span")
	}
}

func TestNilSafety(t *testing.T) {
	var o *Obs
	if o.Metrics() != nil || o.Tracer() != nil || o.Enabled() {
		t.Fatal("nil Obs not inert")
	}
	o.Metrics().Observe(HOp, time.Second)
	o.Metrics().Timer(HOp).Done()
	var sp *Span
	sp.End("x")
	if !sp.Ended() {
		t.Fatal("nil span reads as open")
	}
	sp.Mark("k", "n", "", "", 0, 0)
	if c := sp.StartChild("k", "n", "", 0, 0); c != nil {
		t.Fatal("nil span spawned a child")
	}
	if o.Snapshot().Enabled {
		t.Fatal("nil snapshot enabled")
	}
}

func TestTracerTree(t *testing.T) {
	o := New(Options{})
	tr := o.Tracer()
	root := tr.StartRoot("signal", "modify(Stock)", "", 10, 0)
	cond := root.StartChild("cond", "audit", "immediate", 11, 10)
	cond.End("ok")
	if !cond.Ended() || root.Ended() {
		t.Fatalf("ended: cond %v, root %v; want true, false", cond.Ended(), root.Ended())
	}
	act := root.StartChild("action", "audit", "immediate", 12, 10)
	act.Mark("rule", "other", "", "not-satisfied", 0, 0)
	act.End("fired")
	root.End("")

	last := tr.Last(1)
	if len(last) != 1 {
		t.Fatalf("last = %d trees", len(last))
	}
	got := last[0]
	if got.Kind != "signal" || got.Name != "modify(Stock)" || got.Txn != 10 {
		t.Fatalf("root snapshot = %+v", got)
	}
	if len(got.Children) != 2 || got.Children[0].Kind != "cond" || got.Children[1].Kind != "action" {
		t.Fatalf("children = %+v", got.Children)
	}
	if got.Children[0].ParentTxn != 10 || got.Children[0].Outcome != "ok" {
		t.Fatalf("cond child = %+v", got.Children[0])
	}
	if got.Children[1].Children[0].Outcome != "not-satisfied" {
		t.Fatalf("mark = %+v", got.Children[1].Children[0])
	}
	if got.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", got.Depth())
	}
	var visited int
	got.Walk(func(*SpanSnapshot, int) { visited++ })
	if visited != 4 {
		t.Fatalf("walked %d nodes, want 4", visited)
	}
}

func TestRingEviction(t *testing.T) {
	o := New(Options{TraceCapacity: 4})
	tr := o.Tracer()
	for i := 0; i < 10; i++ {
		tr.StartRoot("signal", fmt.Sprintf("s%d", i), "", 0, 0).End("")
	}
	last := tr.Last(0)
	if len(last) != 4 {
		t.Fatalf("retained %d, want 4", len(last))
	}
	for i, want := range []string{"s9", "s8", "s7", "s6"} {
		if last[i].Name != want {
			t.Fatalf("last[%d] = %q, want %q", i, last[i].Name, want)
		}
	}
	rec, dropped, capacity := tr.counts()
	if rec != 10 || dropped != 6 || capacity != 4 {
		t.Fatalf("counts = %d recorded, %d dropped, cap %d", rec, dropped, capacity)
	}
	if two := tr.Last(2); len(two) != 2 || two[0].Name != "s9" || two[1].Name != "s8" {
		t.Fatalf("Last(2) = %+v", two)
	}
}

func TestSlowFiringLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	o := New(Options{SlowFiring: time.Nanosecond, Logf: func(f string, a ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(f, a...))
		mu.Unlock()
	}})
	sp := o.Tracer().StartRoot("signal", "slowpoke", "", 0, 0)
	time.Sleep(time.Millisecond)
	sp.End("")
	if o.Tracer().SlowFirings() != 1 {
		t.Fatalf("slow firings = %d", o.Tracer().SlowFirings())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "slowpoke") {
		t.Fatalf("log = %v", lines)
	}
}

func TestEndIdempotent(t *testing.T) {
	o := New(Options{})
	sp := o.Tracer().StartRoot("signal", "x", "", 0, 0)
	sp.End("first")
	sp.End("second")
	last := o.Tracer().Last(0)
	if len(last) != 1 || last[0].Outcome != "first" {
		t.Fatalf("double End recorded twice or overwrote: %+v", last)
	}
}

func TestPrometheusRendering(t *testing.T) {
	o := New(Options{})
	o.Metrics().Observe(HWALSync, 3*time.Millisecond)
	o.Metrics().ObserveN(HIPCMessage, 40)
	o.Tracer().StartRoot("signal", "x", "", 0, 0).End("")
	var b strings.Builder
	if err := WritePrometheus(&b, o.Snapshot(), "hipac"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE hipac_wal_sync_duration_seconds histogram",
		`hipac_wal_sync_duration_seconds_bucket{le="+Inf"} 1`,
		"hipac_wal_sync_duration_seconds_count 1",
		"# TYPE hipac_ipc_message_bytes histogram",
		`hipac_ipc_message_bytes_bucket{le="+Inf"} 1`,
		"hipac_ipc_message_bytes_sum 40",
		"hipac_traces_recorded_total 1",
		"hipac_slow_firings_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative buckets: the +Inf bucket equals count for every hist.
	if strings.Contains(out, `le="+Inf"} 0`) && !strings.Contains(out, "hipac_op_duration_seconds") {
		t.Fatal("histogram rendering incomplete")
	}
}

func TestConcurrentRecording(t *testing.T) {
	o := New(Options{TraceCapacity: 8, SlowFiring: time.Nanosecond, Logf: func(string, ...any) {}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Metrics().Observe(HOp, time.Duration(i)*time.Microsecond)
				tm := o.Metrics().Timer(HCondEval)
				tm.Done()
				root := o.Tracer().StartRoot("signal", "t", "", uint64(g*1000+i+1), 0)
				c := root.StartChild("cond", "r", "immediate", 0, 0)
				c.End("ok")
				root.End("")
			}
		}(g)
	}
	wg.Wait()
	s := o.Snapshot()
	if s.Hist["op"].Count != 1600 || s.Hist["cond_eval"].Count != 1600 {
		t.Fatalf("hist counts = %d / %d", s.Hist["op"].Count, s.Hist["cond_eval"].Count)
	}
	if s.TraceRecorded != 1600 || len(o.Tracer().Last(0)) != 8 {
		t.Fatalf("traces = %d recorded, %d retained", s.TraceRecorded, len(o.Tracer().Last(0)))
	}
}
