package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records firing trees: every event signal that triggers rules
// becomes a root span whose children mirror the nested-transaction
// tree rule processing builds (§3.2 of the paper) — condition
// subtransactions, sibling action subtransactions, cascaded signals,
// deferred drains at commit, and separate top-level firings.
//
// The tracer keeps no index of open spans. The rule manager carries a
// firing's open span on its transaction record (txn.Txn.Span); when a
// cascaded signal arrives, it walks the trigger's ancestor chain and
// attaches the new span under the innermost one that has not ended
// (Span.Ended), so cross-rule causality is preserved without
// threading context through every call.
//
// Finished root spans are materialized into immutable snapshots and
// kept in a fixed-capacity ring, newest-first on read.
type Tracer struct {
	on        atomic.Bool
	capacity  int
	slow      time.Duration
	logf      func(format string, args ...any)
	slowCount atomic.Uint64

	mu       sync.Mutex // guards the ring below
	ring     []SpanSnapshot
	next     int // overwrite cursor once the ring is full
	recorded uint64
	dropped  uint64
}

// On reports whether tracing is enabled. Safe on nil.
func (t *Tracer) On() bool { return t != nil && t.on.Load() }

// Span is one node of an in-progress firing tree. A nil *Span is a
// valid no-op target for every method, so disabled tracing needs no
// branches at the call sites.
type Span struct {
	tr   *Tracer
	root *Span

	kind      string
	name      string
	mode      string
	txn       uint64
	parentTxn uint64
	start     time.Time
	ended     atomic.Bool

	mu       sync.Mutex
	outcome  string
	dur      time.Duration
	children []*Span
}

func (t *Tracer) newSpan(at time.Time, kind, name, mode string, txn, parentTxn uint64) *Span {
	s := &Span{tr: t, kind: kind, name: name, mode: mode,
		txn: txn, parentTxn: parentTxn, start: at}
	s.root = s
	return s
}

// StartRoot opens a new firing tree. Returns nil when tracing is off.
func (t *Tracer) StartRoot(kind, name, mode string, txn, parentTxn uint64) *Span {
	if !t.On() {
		return nil
	}
	return t.newSpan(time.Now(), kind, name, mode, txn, parentTxn)
}

// StartRootAt is StartRoot for a caller that has read the clock
// already: the tree starts at at.
func (t *Tracer) StartRootAt(at time.Time, kind, name, mode string, txn, parentTxn uint64) *Span {
	if !t.On() {
		return nil
	}
	return t.newSpan(at, kind, name, mode, txn, parentTxn)
}

// StartChild opens a child span. Nil-safe; the child shares the
// receiver's tree.
func (s *Span) StartChild(kind, name, mode string, txn, parentTxn uint64) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.newSpan(time.Now(), kind, name, mode, txn, parentTxn)
	c.root = s.root
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Mark appends an instantaneous child (queue markers, not-satisfied
// verdicts). Nil-safe.
func (s *Span) Mark(kind, name, mode, outcome string, txn, parentTxn uint64) {
	if s != nil {
		s.MarkAt(time.Now(), kind, name, mode, outcome, txn, parentTxn)
	}
}

// MarkAt is Mark for a caller that has read the clock already: the
// mark is dated at.
func (s *Span) MarkAt(at time.Time, kind, name, mode, outcome string, txn, parentTxn uint64) {
	if s == nil {
		return
	}
	c := &Span{tr: s.tr, root: s.root, kind: kind, name: name, mode: mode,
		txn: txn, parentTxn: parentTxn, start: at, outcome: outcome}
	c.ended.Store(true)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span with an outcome. Ending a root materializes the
// tree into the ring and runs the slow-firing check. Nil-safe and
// idempotent.
func (s *Span) End(outcome string) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	s.outcome = outcome
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	if s.root == s {
		s.tr.finish(s)
	}
}

// Ended reports whether the span has ended. A nil span has.
func (s *Span) Ended() bool { return s == nil || s.ended.Load() }

func (t *Tracer) finish(root *Span) {
	snap := root.materialize()
	if t.slow > 0 && snap.DurNS >= int64(t.slow) {
		t.slowCount.Add(1)
		t.logf("obs: slow firing: %s %q took %v (threshold %v)",
			snap.Kind, snap.Name, time.Duration(snap.DurNS), t.slow)
	}
	t.mu.Lock()
	t.recorded++
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, snap)
	} else {
		t.ring[t.next] = snap
		t.next = (t.next + 1) % t.capacity
		t.dropped++
	}
	t.mu.Unlock()
}

func (s *Span) materialize() SpanSnapshot {
	s.mu.Lock()
	out := SpanSnapshot{
		Kind: s.kind, Name: s.name, Mode: s.mode, Outcome: s.outcome,
		Txn: s.txn, ParentTxn: s.parentTxn,
		StartNS: s.start.UnixNano(), DurNS: int64(s.dur),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.materialize())
	}
	return out
}

// Last returns up to n finished firing trees, newest first (n<=0
// means all retained).
func (t *Tracer) Last(n int) []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := len(t.ring)
	if n <= 0 || n > total {
		n = total
	}
	newest := total - 1
	if total == t.capacity {
		newest = (t.next - 1 + t.capacity) % t.capacity
	}
	out := make([]SpanSnapshot, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(newest-i+total)%total])
	}
	return out
}

func (t *Tracer) counts() (recorded, dropped uint64, capacity int) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded, t.dropped, t.capacity
}

// SlowFirings returns the number of root spans that crossed the
// slow-firing threshold.
func (t *Tracer) SlowFirings() uint64 {
	if t == nil {
		return 0
	}
	return t.slowCount.Load()
}

// SpanSnapshot is one node of a finished firing tree.
type SpanSnapshot struct {
	Kind      string         `json:"kind"`
	Name      string         `json:"name,omitempty"`
	Mode      string         `json:"mode,omitempty"`
	Outcome   string         `json:"outcome,omitempty"`
	Txn       uint64         `json:"txn,omitempty"`
	ParentTxn uint64         `json:"parentTxn,omitempty"`
	StartNS   int64          `json:"startNs"`
	DurNS     int64          `json:"durNs"`
	Children  []SpanSnapshot `json:"children,omitempty"`
}

// Depth returns the tree's depth (a leaf is 1).
func (s SpanSnapshot) Depth() int {
	max := 0
	for _, c := range s.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Walk visits the tree pre-order with each node's depth (root 0).
func (s *SpanSnapshot) Walk(fn func(node *SpanSnapshot, depth int)) {
	var rec func(n *SpanSnapshot, d int)
	rec = func(n *SpanSnapshot, d int) {
		fn(n, d)
		for i := range n.Children {
			rec(&n.Children[i], d+1)
		}
	}
	rec(s, 0)
}
