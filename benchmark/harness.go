package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
)

// epoch anchors every timestamp of a run; nowNs is monotonic.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// --- samples and windows ---

// sample is one completed operation or one delivered rule action. Two
// 32-bit fields keep a saturated run's few million samples small and
// free of pointers, so they cost the collector nothing to scan.
type sample struct {
	atUs  uint32 // completion time, µs after the recorder's origin
	latNs uint32 // latency, clamped to ~4.29 s
}

// recorder collects samples. Load goroutines own one each; the ones
// application handlers write to are shared, hence the mutex.
type recorder struct {
	mu     sync.Mutex
	origin int64
	s      []sample
}

func newRecorder(origin int64, capacity int) *recorder {
	return &recorder{origin: origin, s: make([]sample, 0, capacity)}
}

func (r *recorder) add(at, lat int64) {
	if lat < 0 {
		lat = 0
	}
	if lat > math.MaxUint32 {
		lat = math.MaxUint32
	}
	us := (at - r.origin) / 1000
	if us < 0 {
		us = 0
	}
	r.mu.Lock()
	r.s = append(r.s, sample{atUs: uint32(us), latNs: uint32(lat)})
	r.mu.Unlock()
}

// dist is a quantity measured once per window. The reported value is
// the median over the windows; IQR is their inter-quartile range and N
// the number of samples (operations, firings) behind all of them.
type dist struct {
	Median, IQR float64
	N           int
	Windows     []float64
}

func overWindows(vals []float64, n int) dist {
	if len(vals) == 0 {
		return dist{}
	}
	q1, q2, q3 := quartiles(vals)
	return dist{Median: q2, IQR: q3 - q1, N: n, Windows: vals}
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// method the driver judges spreads with. Fewer than two values have no
// spread.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quantile is nearest-rank on an ascending slice.
func quantile[T uint32 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// windowed cuts [start,end) into equal windows and computes, per
// window, the completion rate (1/s) and the median latency (µs) of the
// samples completed inside it.
func windowed(recs []*recorder, start, end int64, windows int) (rate, p50 dist) {
	width := (end - start) / int64(windows)
	lats := make([][]uint32, windows)
	total := 0
	for _, r := range recs {
		r.mu.Lock()
		for _, s := range r.s {
			at := r.origin + int64(s.atUs)*1000
			if at < start || at >= start+width*int64(windows) {
				continue
			}
			w := (at - start) / width
			lats[w] = append(lats[w], s.latNs)
			total++
		}
		r.mu.Unlock()
	}
	var rates, p50s []float64
	for _, l := range lats {
		rates = append(rates, float64(len(l))/(float64(width)/1e9))
		if len(l) == 0 {
			continue
		}
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		p50s = append(p50s, quantile(l, 0.50)/1000)
	}
	return overWindows(rates, total), overWindows(p50s, total)
}

// allLatencies returns every latency (µs) recorded in [start,end).
func allLatencies(recs []*recorder, start, end int64) []float64 {
	var out []float64
	for _, r := range recs {
		r.mu.Lock()
		for _, s := range r.s {
			if at := r.origin + int64(s.atUs)*1000; at >= start && at < end {
				out = append(out, float64(s.latNs)/1000)
			}
		}
		r.mu.Unlock()
	}
	sort.Float64s(out)
	return out
}

// --- load loops ---

// drainTimeout bounds the wait for rule actions still in flight after
// the load has stopped; what is missing then counts as failed.
const drainTimeout = 20 * time.Second

// drain waits, after the load has stopped, until done reports that
// every expected rule action has reached the application.
func drain(e *core.Engine, done func() bool) {
	for deadline := time.Now().Add(drainTimeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		e.Quiesce()
		if done() {
			return
		}
	}
}

// lastWrite is the last write to one object a client saw committed, and
// when: the output checks hold the database against it.
type lastWrite struct {
	price      float64
	seq        int64
	issue, ret int64
}

// loadStats counts what the load goroutines attempted.
type loadStats struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	firstErr  error
}

func (s *loadStats) fail(err error) {
	s.failed.Add(1)
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

// closedLoop issues op back to back: the next one starts when the
// previous returns, so a slow system receives less load. op reports
// when it issued its request (after any wait for its own bounded
// queue); latency is issue to return.
func closedLoop(stop *atomic.Bool, op func() (issued int64, err error), rec *recorder, st *loadStats) {
	for !stop.Load() {
		start, err := op()
		end := nowNs()
		st.attempted.Add(1)
		if err != nil {
			st.fail(err)
			continue
		}
		rec.add(end, end-start)
	}
}

// openLoop issues op on a fixed schedule of perSec from t0 until the
// schedule reaches until, whatever the system does. op receives its due
// time and latency is due to return, so a stall is charged to every
// operation it delays. lag records how late the generator itself was:
// issue time minus the later of due time and the previous return.
func openLoop(t0, until int64, perSec float64, op func(due int64) error, rec, lag *recorder, st *loadStats) {
	interval := 1e9 / perSec
	prevEnd := t0
	for i := 0; ; i++ {
		due := t0 + int64(float64(i)*interval)
		if due >= until {
			return
		}
		sleepUntil(due)
		issue := nowNs()
		ready := due
		if prevEnd > ready {
			ready = prevEnd
		}
		lag.add(issue, issue-ready)
		err := op(due)
		end := nowNs()
		prevEnd = end
		st.attempted.Add(1)
		if err != nil {
			st.fail(err)
			continue
		}
		rec.add(end, end-due)
	}
}

// sleepUntil sleeps through most of the wait and yields through the
// last stretch: under load a timer alone wakes its goroutine hundreds
// of µs late, and a goroutine that keeps yielding is back on a
// processor sooner.
func sleepUntil(due int64) {
	for {
		d := due - nowNs()
		switch {
		case d <= 0:
			return
		case d > 200_000:
			time.Sleep(time.Duration(d - 100_000))
		default:
			runtime.Gosched()
		}
	}
}

// --- segments ---

// paced is one open-loop load goroutine.
type paced struct {
	perSec float64
	op     func(due int64) error
}

// segment is one stretch of load: warm-up, then a measured phase cut
// into windows. closed and paced goroutines run side by side for the
// whole stretch. atStart and atEnd run at the edges of the measured
// phase while the load is still on, so counters read there cover
// exactly the phase.
type segment struct {
	warm, dur      time.Duration
	windows        int
	closed         []func() (issued int64, err error)
	paced          []paced
	atStart, atEnd func()
}

type segResult struct {
	start, end int64
	windows    int
	ops        []*recorder // one per load goroutine: closed, then paced
	lag        *recorder
	st         loadStats
	cpuAt      []float64 // process CPU seconds at each window edge
	rssPeakMB  float64
	wcharStart uint64
	wcharEnd   uint64
}

// windowsFor gives five windows to any phase long enough for them to
// mean something; the 300 ms test phase gets one.
func windowsFor(dur time.Duration) int {
	w := int(dur / (500 * time.Millisecond))
	if w < 1 {
		return 1
	}
	if w > 5 {
		return 5
	}
	return w
}

func (sg segment) run() *segResult {
	t0 := nowNs()
	res := &segResult{start: t0 + int64(sg.warm), windows: sg.windows, lag: newRecorder(t0, 1<<16)}
	res.end = res.start + int64(sg.dur)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, op := range sg.closed {
		rec := newRecorder(t0, 1<<16)
		res.ops = append(res.ops, rec)
		wg.Add(1)
		go func(op func() (int64, error)) {
			defer wg.Done()
			closedLoop(&stop, op, rec, &res.st)
		}(op)
	}
	for _, p := range sg.paced {
		rec := newRecorder(t0, 1<<16)
		res.ops = append(res.ops, rec)
		wg.Add(1)
		go func(p paced) {
			defer wg.Done()
			openLoop(t0, res.end, p.perSec, p.op, rec, res.lag, &res.st)
		}(p)
	}

	// The coordinator samples resident memory while it waits and reads
	// the CPU clock at every window edge.
	waitFor := func(until int64) {
		for {
			if rss := rssMB(); rss > res.rssPeakMB && nowNs() >= res.start {
				res.rssPeakMB = rss
			}
			d := until - nowNs()
			if d <= 0 {
				return
			}
			if d > int64(50*time.Millisecond) {
				d = int64(50 * time.Millisecond)
			}
			time.Sleep(time.Duration(d))
		}
	}
	waitFor(res.start)
	if sg.atStart != nil {
		sg.atStart()
	}
	res.wcharStart = procWchar()
	res.cpuAt = append(res.cpuAt, cpuSeconds())
	width := int64(sg.dur) / int64(sg.windows)
	for w := 1; w <= sg.windows; w++ {
		waitFor(res.start + width*int64(w))
		res.cpuAt = append(res.cpuAt, cpuSeconds())
	}
	res.wcharEnd = procWchar()
	if sg.atEnd != nil {
		sg.atEnd()
	}
	stop.Store(true)
	wg.Wait()
	return res
}

// cpuPerKop is process CPU seconds per 1000 completed operations, per
// window, given the windows' completion rates.
func (r *segResult) cpuPerKop(rate dist) dist {
	width := float64(r.end-r.start) / float64(r.windows) / 1e9
	var vals []float64
	for w, perSec := range rate.Windows {
		if perSec > 0 {
			vals = append(vals, (r.cpuAt[w+1]-r.cpuAt[w])/(perSec*width)*1000)
		}
	}
	return overWindows(vals, rate.N)
}

// --- process counters ---

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var pageSize = float64(os.Getpagesize())

// rssMB reads the resident set from /proc/self/statm.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * pageSize / (1 << 20)
}

// retainedMB is the resident set once the load has stopped, the rule
// actions have drained and a collection has returned what it freed to
// the OS: the data, its versions and indexes, and whatever the engine
// caches. The peak while under load is dominated by how many firing
// goroutines happened to be in flight at the worst instant and does not
// repeat; this does.
func retainedMB() float64 {
	debug.FreeOSMemory()
	return rssMB()
}

// procWchar reads the bytes this process has passed to write calls.
func procWchar() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}

// --- spans ---

// span is one call across a layer boundary, recorded by the benchmark
// around its own calls into the engine and inside its handlers.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`     // spans of one operation share it
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in a buffer sized before the run; a full buffer
// drops further spans and counts them.
type tracer struct {
	on  atomic.Bool
	n   atomic.Int64
	buf []span
}

var tr tracer

const maxSpans = 1 << 20

func (t *tracer) begin(name string, op uint64, parent int32) int32 {
	if !t.on.Load() {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		return -1
	}
	t.buf[i] = span{Name: name, Op: op, Parent: parent, Start: nowNs()}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.buf[i].End = nowNs()
	}
}

// recorded returns the finished spans and how many were dropped.
func (t *tracer) recorded() (spans []span, dropped int64) {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		dropped = n - int64(len(t.buf))
		n = int64(len(t.buf))
	}
	return t.buf[:n], dropped
}

// selfTimes fills each span's self time: its duration minus the part
// of that interval its child spans cover. A child that outlives its
// parent (a separate firing) is clipped to the parent's interval.
func selfTimes(spans []span) {
	kids := map[int32][]int32{}
	for i, s := range spans {
		if s.Parent >= 0 && s.End > 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			continue
		}
		s.Self = s.End - s.Start
		c := kids[int32(i)]
		sort.Slice(c, func(a, b int) bool { return spans[c[a]].Start < spans[c[b]].Start })
		covered := s.Start
		for _, k := range c {
			lo, hi := spans[k].Start, spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				s.Self -= hi - lo
				covered = hi
			}
		}
	}
}

// selfShares sums self time by layer — the part of a span's name before
// the dot — as a share of all self time recorded.
func selfShares(spans []span) map[string]float64 {
	sum := map[string]float64{}
	total := 0.0
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		sum[layer] += float64(s.Self)
		total += float64(s.Self)
	}
	for k := range sum {
		sum[k] /= total
	}
	return sum
}

// spanDurationsUs returns the ascending durations of the spans whose
// layer matches.
func spanDurationsUs(spans []span, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.End > 0 && strings.HasPrefix(s.Name, layer+".") {
			out = append(out, float64(s.End-s.Start)/1000)
		}
	}
	sort.Float64s(out)
	return out
}

func fmtDist(d dist) string {
	return fmt.Sprintf("%.4f (window iqr %.4f, n=%d, windows %.4g)", d.Median, d.IQR, d.N, d.Windows)
}

// --- matching a rule's action to the operation that caused it ---

// An operation carries a sequence number in an attribute or argument
// that the rule's action forwards, so the application handler can tell
// which operation it is being called for: seq = client<<48 | n.
const (
	seqClientShift = 48
	seqCountMask   = 1<<seqClientShift - 1
)

// tracker is one load goroutine's table of operations in flight.
type tracker struct {
	client      int
	n           uint64
	seqAt       []atomic.Uint64 // which operation holds the slot
	issued      []atomic.Int64  // its issue (or due) time
	opSpan      []atomic.Int32  // its root span
	undelivered atomic.Int64    // actions expected and not yet delivered
}

// newTracker sizes the table; ring must exceed the number of operations
// that can await their action at once.
func newTracker(client, ring int) *tracker {
	return &tracker{client: client, seqAt: make([]atomic.Uint64, ring),
		issued: make([]atomic.Int64, ring), opSpan: make([]atomic.Int32, ring)}
}

// issue registers the next operation as issued at time at and opens
// its root span.
func (t *tracker) issue(at int64) (seq uint64, root int32) {
	seq = uint64(t.client)<<seqClientShift | t.n
	slot := t.n % uint64(len(t.seqAt))
	t.n++
	root = tr.begin("bench.op", seq, -1)
	t.seqAt[slot].Store(seq)
	t.issued[slot].Store(at)
	t.opSpan[slot].Store(root)
	return seq, root
}

// lookup returns when the operation was issued and its root span; ok is
// false when the slot has since been reused.
func (t *tracker) lookup(seq uint64) (issued int64, root int32, ok bool) {
	slot := (seq & seqCountMask) % uint64(len(t.seqAt))
	issued, root = t.issued[slot].Load(), t.opSpan[slot].Load()
	return issued, root, t.seqAt[slot].Load() == seq
}

// delivered is called by the application handler when the action for
// seq reaches it: it records the event-to-action latency into rec (nil
// outside a measured phase) under a span named name.
func (t *tracker) delivered(name string, seq uint64, rec *recorder) {
	now := nowNs()
	issued, root, ok := t.lookup(seq)
	sp := tr.begin(name, seq, root)
	if ok && rec != nil {
		rec.add(now, now-issued)
	}
	tr.end(sp)
}

// awaitRoom blocks while more than bound actions are undelivered: the
// application's bounded queue.
func (t *tracker) awaitRoom(bound int64) {
	awaitRoom(func() bool { return t.undelivered.Load() <= bound })
}

// awaitRoom polls until there is room, or for a second at most: an
// action that never arrives must fail the run's counts, not hang it.
func awaitRoom(room func() bool) {
	for deadline := nowNs() + int64(time.Second); !room() && nowNs() < deadline; {
		time.Sleep(20 * time.Microsecond)
	}
}

func seqClient(seq uint64) int { return int(seq >> seqClientShift) }
