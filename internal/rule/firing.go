package rule

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cond"
	"repro/internal/datum"
	"repro/internal/event"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/txn"
)

// Quiesce blocks until every detached firing, queued or running, has
// completed.
func (m *Manager) Quiesce() { m.sep.Wait() }

// deferredSet hangs off a transaction's DeferredData slot.
type deferredSet struct {
	mu      sync.Mutex
	entries []deferredEntry
}

type deferredEntry struct {
	sig   event.Signal
	rules []*Rule
}

func (d *deferredSet) add(e deferredEntry) {
	d.mu.Lock()
	d.entries = append(d.entries, e)
	d.mu.Unlock()
}

func (d *deferredSet) drain() []deferredEntry {
	d.mu.Lock()
	out := d.entries
	d.entries = nil
	d.mu.Unlock()
	return out
}

// openSpan starts a firing span for t: a child of the innermost open
// span carried by t or one of its ancestors (a cascade), or the root of
// a fresh firing tree when there is none. It returns nil when tracing
// is off.
func (m *Manager) openSpan(t *txn.Txn, kind, name, mode string, txnID uint64) *obs.Span {
	if !m.tr.On() {
		return nil
	}
	for a := t; a != nil; a = a.Parent() {
		if anchor := a.Span.Load(); !anchor.Ended() {
			return bind(t, anchor.StartChild(kind, name, mode, txnID, 0))
		}
	}
	return bind(t, m.tr.StartRoot(kind, name, mode, txnID, 0))
}

// bind makes sp the span that signals raised in t nest under, unless t
// carries an open one already: the first binder, the span t was begun
// for, wins. It returns sp.
func bind(t *txn.Txn, sp *obs.Span) *obs.Span {
	if t != nil && sp != nil {
		if cur := t.Span.Load(); cur.Ended() {
			t.Span.CompareAndSwap(cur, sp)
		}
	}
	return sp
}

// settle ends sp, "aborted" if err is set and outcome otherwise, and
// returns err.
func settle(sp *obs.Span, err error, outcome string) error {
	if err != nil {
		outcome = "aborted"
	}
	sp.End(outcome)
	return err
}

// judge is a firing's condition stage (§5.5): in t, it read-locks the
// rules' objects (§2.2) and evaluates their conditions together on one
// pinned snapshot plus t's and its ancestors' uncommitted effects, the
// as-of-commit view of §4.2. Commits landing during the evaluation are
// invisible, so every condition judges the same database state.
func (m *Manager) judge(t *txn.Txn, rules []*Rule, sig event.Signal) (map[uint64]*cond.Outcome, error) {
	var buf [4]uint64
	ids := buf[:0]
	for _, r := range rules {
		if err := t.Lock(r.item, lock.Shared); err != nil {
			return nil, err
		}
		ids = append(ids, uint64(r.OID))
	}
	reader := m.objects.SnapshotReader(t)
	defer reader.Close()
	return m.eval.Evaluate(reader, sig.Bindings, false, ids)
}

// fireGroup fires a group of rules nested under parent: all conditions
// are judged in one shared subtransaction (the condition graph makes
// this the multiple-query optimization of §5.5), whose locks fold into
// parent at commit, preserving two-phase locking. The satisfied rules'
// actions then run as sibling subtransactions of parent (§3.2: no
// conflict resolution — serializability is the correctness criterion),
// C-A immediate ones before C-A deferred ones; C-A separate ones are
// detached.
func (m *Manager) fireGroup(parent *txn.Txn, rules []*Rule, sig event.Signal, sp *obs.Span, mode string) error {
	gc, err := parent.Child()
	if err != nil {
		return fmt.Errorf("rule: condition transaction: %w", err)
	}
	gc.Internal = true
	csp := sp.StartChild("cond", groupName(rules), mode, uint64(gc.ID()), uint64(parent.ID()))
	outcomes, err := m.judge(gc, rules, sig)
	if err != nil {
		gc.Abort()
	} else {
		err = gc.Commit()
	}
	if err != nil {
		return settle(csp, err, "")
	}

	var wave1, wave2 []*Rule // CA immediate, then CA deferred
	for _, r := range rules {
		oc := outcomes[uint64(r.OID)]
		if oc == nil || !oc.Satisfied {
			csp.Mark("rule", r.Name, r.CA.String(), "not-satisfied", 0, 0)
			continue
		}
		m.n.satisfied.Add(1)
		switch r.CA {
		case Immediate:
			wave1 = append(wave1, r)
		case Deferred:
			wave2 = append(wave2, r)
		case Separate:
			m.detach(r, sig, oc, parent.Level+1, csp)
		}
	}
	csp.End("ok")
	if err := m.runWave(parent, wave1, sig, outcomes, sp); err != nil {
		return err
	}
	return m.runWave(parent, wave2, sig, outcomes, sp)
}

// runWave executes the actions of a wave as sibling subtransactions of
// parent, waiting for all and returning the first error (whose firing
// subtransaction is aborted). Siblings run concurrently, each on a
// goroutine of its own; a wave of one runs inline, on the goroutine of
// the parent, which is suspended meanwhile anyway.
func (m *Manager) runWave(parent *txn.Txn, wave []*Rule, sig event.Signal, outcomes map[uint64]*cond.Outcome, sp *obs.Span) error {
	var wg sync.WaitGroup
	errs := make([]error, len(wave))
	for i, r := range wave {
		ac, err := parent.Child()
		if err != nil {
			errs[i] = err
			break
		}
		ac.Internal = true
		asp := bind(ac, sp.StartChild("action", r.Name, r.CA.String(), uint64(ac.ID()), uint64(parent.ID())))
		primary := outcomes[uint64(r.OID)].Primary
		if len(wave) == 1 {
			errs[i] = m.act(ac, r, sig, primary, asp)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.act(ac, r, sig, primary, asp)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Detached firings (§3.2 separate coupling) run on a fixed set of
// workers fed by one bounded FIFO. A firing that finds the FIFO full,
// or the manager closed, runs on a goroutine of its own instead, so
// detach never blocks: not the signaling operation, and not a worker
// whose action cascades into further separate firings.
//
// The FIFO is bounded so that a producer that outruns the workers
// meets overflow goroutines, which are live transactions it can see,
// instead of a queue that grows without limit. 4 096 slots hold a few
// MiB of signals, and a saturated cep_stream never filled them.
const (
	workersPerProc = 8 // workers per GOMAXPROCS
	fifoSlots      = 4096
)

// firing is one detached firing: r in a new internal top-level
// transaction at cascade level level, with oc nil judging r's
// condition first (E-C separate), with oc set running only the action
// (C-A separate).
type firing struct {
	r      *Rule
	sig    event.Signal
	oc     *cond.Outcome
	level  int
	queued time.Time // when detach ran; zero when neither metrics nor tracing is on
}

// start starts n workers on a fresh FIFO with room for slots firings.
func (m *Manager) start(n, slots int) {
	m.fifo = make(chan firing, slots)
	m.workers.Add(n)
	for range n {
		go m.runner(firing{}, m.fifo)
	}
}

// Close waits for every queued and running detached firing, then stops
// the workers. Firings detached after Close run on goroutines of their
// own; Quiesce waits for them.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		m.sep.Wait()
		return
	}
	// A detach counts its firing in sep before it looks at closed, so
	// once sep drains no firing can still be on its way into the FIFO.
	m.sep.Wait()
	close(m.fifo)
	m.workers.Wait()
}

// now reads the clock when something will use the reading: the
// firing's queue wait or its span.
func (m *Manager) now() time.Time {
	if m.met.On() || m.tr.On() {
		return time.Now()
	}
	return time.Time{}
}

// detach schedules a detached firing and marks it on sp, the span of
// the firing stage it leaves. The mark's clock reading doubles as the
// firing's enqueue time.
func (m *Manager) detach(r *Rule, sig event.Signal, oc *cond.Outcome, level int, sp *obs.Span) {
	if oc == nil {
		m.n.separate.Add(1)
	}
	f := firing{r: r, sig: sig, oc: oc, level: level, queued: m.now()}
	sp.MarkAt(f.queued, "separate-spawn", r.Name, "separate", "", 0, 0)
	m.sep.Add(1)
	if !m.closed.Load() {
		select {
		case m.fifo <- f:
			m.n.queued.Add(1)
			return
		default:
		}
	}
	m.n.overflowed.Add(1)
	go m.runner(f, nil)
}

// runner runs detached firings: f, unless it is the zero firing, and
// then, if fifo is set (a worker), each firing it takes off fifo until
// Close closes it. A firing begins its transaction, judges r's
// condition unless oc is set, acts, and reports its error; judge and
// act are called from the runner's own frame, since a frame more
// above plan execution made remote_oltp's firings grow their stacks
// (EXPERIMENTS.md C29). The clock reading at pickup dates both the
// firing's root span and the end of its queue wait.
func (m *Manager) runner(f firing, fifo <-chan firing) {
	for {
		if f.r != nil {
			at := m.now()
			if fifo != nil && !f.queued.IsZero() {
				m.met.Observe(obs.HFiringQueueWait, at.Sub(f.queued))
			}
			r, oc := f.r, f.oc
			t := m.txns.Begin()
			t.Internal, t.Level = true, f.level
			kind, mode := "action", "separate"
			if oc == nil {
				kind, mode = "separate", r.EC.String()+"/"+r.CA.String()
			}
			sp := bind(t, m.tr.StartRootAt(at, kind, r.Name, mode, uint64(t.ID()), 0))
			var err error
			if oc == nil {
				outcomes, jerr := m.judge(t, []*Rule{r}, f.sig)
				oc, err = m.verdict(t, r, f.sig, sp, outcomes, jerr)
			}
			if oc != nil {
				err = m.act(t, r, f.sig, oc.Primary, sp)
			}
			if err != nil {
				m.reportAsync(r.Name, err)
			}
			m.sep.Done()
		}
		if fifo == nil {
			return
		}
		var ok bool
		if f, ok = <-fifo; !ok {
			m.workers.Done()
			return
		}
	}
}

// verdict ends an E-C separate firing's condition stage in t. It
// returns r's outcome if r's action runs in t too (C-A immediate or
// deferred, as in the paper's SAA rules); otherwise it ends t and sp
// itself, detaching a C-A separate action.
func (m *Manager) verdict(t *txn.Txn, r *Rule, sig event.Signal, sp *obs.Span, outcomes map[uint64]*cond.Outcome, err error) (*cond.Outcome, error) {
	if err != nil {
		t.Abort()
		return nil, settle(sp, err, "")
	}
	oc := outcomes[uint64(r.OID)]
	if oc == nil || !oc.Satisfied {
		return nil, settle(sp, t.Commit(), "not-satisfied")
	}
	m.n.satisfied.Add(1)
	if r.CA != Separate {
		return oc, nil
	}
	if err := t.Commit(); err != nil {
		return nil, settle(sp, err, "")
	}
	m.detach(r, sig, oc, t.Level, sp)
	sp.End("ok")
	return nil, nil
}

// act runs a satisfied rule's action in t, then commits t, or aborts
// it when the action fails. sp, the firing's span, ends with the
// outcome.
func (m *Manager) act(t *txn.Txn, r *Rule, sig event.Signal, primary *query.Result, sp *obs.Span) error {
	err := m.execAction(t, r, sig, primary)
	if err != nil {
		t.Abort()
		err = fmt.Errorf("rule %q action: %w", r.Name, err)
	} else if err = t.Commit(); err != nil {
		err = fmt.Errorf("rule %q action commit: %w", r.Name, err)
	}
	return settle(sp, err, "fired")
}

// --- commit processing (§6.3) ---

// ProcessCommit is registered as a transaction-manager pre-commit
// hook: when a transaction commits, the Transaction Manager signals
// the commit event and the Rule Manager processes the transaction's
// deferred rule firings before commit completes.
func (m *Manager) ProcessCommit(t *txn.Txn) error {
	// The commit event itself can trigger rules (transaction-control
	// events, §2.1). Signalled first, so rules on commit() run while
	// the transaction can still host subtransactions. Internal
	// (rule-processing) transactions do not signal: a commit() rule
	// would otherwise trigger itself through its own firing
	// subtransactions, recursing forever.
	if m.det != nil && !t.Internal {
		if err := m.det.SignalDatabase(event.OpCommit, "", t.ID(), map[string]datum.Value{
			"op":  datum.Str(string(event.OpCommit)),
			"txn": datum.Int(int64(t.ID())),
		}); err != nil {
			return err
		}
	}
	// Drain the deferred set; processing can enqueue further deferred
	// firings (cascades), so loop until empty.
	set, _ := t.DeferredData.(*deferredSet)
	if set == nil {
		return nil
	}
	entries := set.drain()
	if len(entries) == 0 {
		return nil
	}
	// dsp groups the whole drain.
	dsp := m.openSpan(t, "commit", "deferred", "deferred", uint64(t.ID()))
	for ; len(entries) > 0; entries = set.drain() {
		for _, e := range entries {
			for _, r := range e.rules {
				dsp.Mark("deferred-drain", r.Name, "deferred", "", 0, 0)
			}
			if err := m.fireGroup(t, e.rules, e.sig, dsp, "deferred"); err != nil {
				return settle(dsp, err, "")
			}
		}
	}
	return settle(dsp, nil, "ok")
}

// ProcessAbort is registered as a transaction listener: aborts are
// signalled as transaction-control events (outside any transaction —
// the aborted one is gone), and the transaction's deferred firings
// are discarded.
func (m *Manager) ProcessAbort(t *txn.Txn) {
	if set, _ := t.DeferredData.(*deferredSet); set != nil {
		set.drain()
	}
	if m.det != nil && !t.Internal {
		if err := m.det.SignalDatabase(event.OpAbort, "", 0, map[string]datum.Value{
			"op":  datum.Str(string(event.OpAbort)),
			"txn": datum.Int(int64(t.ID())),
		}); err != nil {
			m.reportAsync("", err)
		}
	}
}
