package rule

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cond"
	"repro/internal/datum"
	"repro/internal/event"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/txn"
)

// AppDispatcher delivers rule-action requests to application programs
// (§4.1: "HiPAC becomes the client and the application becomes the
// server"). The engine connects it to registered in-process handlers
// or, through the server layer, to remote clients.
type AppDispatcher interface {
	Dispatch(op string, args map[string]datum.Value) (map[string]datum.Value, error)
}

// CallFunc is a registered Go callback usable in "call" action steps.
type CallFunc func(tx *txn.Txn, bindings map[string]datum.Value) error

// Stats counts rule-manager activity.
type Stats struct {
	Signals             uint64 // event signals handled
	Triggered           uint64 // rule firings scheduled
	Filtered            uint64 // subscribed rules a signal skipped: a guard was definitely false
	ImmediateFirings    uint64
	DeferredFirings     uint64
	SeparateFirings     uint64
	ConditionsSatisfied uint64
	ActionsExecuted     uint64
	AsyncErrors         uint64

	// RuleFirings counts action executions per rule name. Cardinality
	// is bounded: past MaxFiringCounters distinct names, further rules
	// aggregate under FiringOverflowKey.
	RuleFirings map[string]uint64 `json:",omitempty"`
}

// MaxFiringCounters bounds the per-rule firing counter map; rule
// names beyond the cap are counted under FiringOverflowKey so an
// unbounded rule churn cannot grow the stats snapshot without limit.
const MaxFiringCounters = 1024

// FiringOverflowKey aggregates firings of rules beyond the counter
// cardinality cap.
const FiringOverflowKey = "__other__"

// Manager is the Rule Manager. It maps events to rules and schedules
// condition evaluation and action execution per the coupling modes.
//
// mu serializes the rule lifecycle (register, unregister, enable,
// disable) and guards the maps it maintains. Signal processing takes
// no manager lock: HandleEmit reads the subscription's dispatch table
// through an atomic pointer, and the counters are atomics.
type Manager struct {
	txns    *txn.Manager
	objects *object.Manager
	eval    *cond.Evaluator
	det     *event.Detectors // set via SetDetectors after construction
	met     *obs.Metrics     // nil-safe latency observer
	tr      *obs.Tracer      // nil-safe firing-tree tracer
	app     AppDispatcher
	onErr   func(rule string, err error)

	mu       sync.RWMutex
	rules    map[datum.OID]*Rule
	byName   map[string]datum.OID
	specSubs map[string]event.SubID // canonical spec -> shared subscription

	subs  sync.Map // event.SubID -> *subscription
	calls sync.Map // callback name -> CallFunc

	n struct {
		signals, triggered, filtered            atomic.Uint64
		immediate, deferred, separate           atomic.Uint64
		satisfied, actionsExecuted, asyncErrors atomic.Uint64
	}

	sep sync.WaitGroup // in-flight separate firings
}

// subscription is the Rule Manager's side of one detector
// subscription, shared by every rule with the same event
// specification.
type subscription struct {
	rules int                           // registered rules, enabled or not; guarded by Manager.mu
	table atomic.Pointer[dispatchTable] // the enabled ones; never nil
}

// NewManager returns a Rule Manager. Call SetDetectors once the event
// detectors exist (they need the manager's HandleEmit as their sink),
// and Restore to reload persisted rules.
func NewManager(txns *txn.Manager, objects *object.Manager, eval *cond.Evaluator) *Manager {
	return &Manager{
		txns:     txns,
		objects:  objects,
		eval:     eval,
		rules:    map[datum.OID]*Rule{},
		byName:   map[string]datum.OID{},
		specSubs: map[string]event.SubID{},
	}
}

// SetDetectors wires the event detectors. Not safe to call
// concurrently with rule processing.
func (m *Manager) SetDetectors(d *event.Detectors) { m.det = d }

// SetAppDispatcher wires the application-operation dispatcher. Not
// safe to call concurrently with rule processing.
func (m *Manager) SetAppDispatcher(a AppDispatcher) { m.app = a }

// SetObs wires the observability subsystem: firing steps become spans
// of the tracer's firing trees, and action executions feed the latency
// histograms. Not safe to call concurrently with rule processing.
func (m *Manager) SetObs(o *obs.Obs) {
	m.met = o.Metrics()
	m.tr = o.Tracer()
}

// SetErrorHandler installs a handler for errors in separate (asynchronous)
// firings. Not safe to call concurrently with rule processing.
func (m *Manager) SetErrorHandler(f func(rule string, err error)) { m.onErr = f }

// RegisterCall registers a Go callback usable by "call" action steps.
func (m *Manager) RegisterCall(name string, fn CallFunc) { m.calls.Store(name, fn) }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	st := Stats{
		Signals:             m.n.signals.Load(),
		Triggered:           m.n.triggered.Load(),
		Filtered:            m.n.filtered.Load(),
		ImmediateFirings:    m.n.immediate.Load(),
		DeferredFirings:     m.n.deferred.Load(),
		SeparateFirings:     m.n.separate.Load(),
		ConditionsSatisfied: m.n.satisfied.Load(),
		ActionsExecuted:     m.n.actionsExecuted.Load(),
		AsyncErrors:         m.n.asyncErrors.Load(),
	}
	// Per-rule counts live on the rules; the cardinality cap is applied
	// here, in name order so the named set is stable between snapshots.
	m.mu.RLock()
	var fired []*Rule
	for _, r := range m.rules {
		if r.fired.Load() > 0 {
			fired = append(fired, r)
		}
	}
	m.mu.RUnlock()
	if len(fired) > 0 {
		sort.Slice(fired, func(i, j int) bool { return fired[i].Name < fired[j].Name })
		st.RuleFirings = make(map[string]uint64, min(len(fired), MaxFiringCounters+1))
		for i, r := range fired {
			name := r.Name
			if i >= MaxFiringCounters {
				name = FiringOverflowKey
			}
			st.RuleFirings[name] += r.fired.Load()
		}
	}
	return st
}

func (m *Manager) reportAsync(rule string, err error) {
	m.n.asyncErrors.Add(1)
	if m.onErr != nil {
		m.onErr(rule, err)
	}
}

// Quiesce blocks until all in-flight separate firings complete.
func (m *Manager) Quiesce() { m.sep.Wait() }

// --- rule lifecycle (rules are objects: §2.2) ---

// EnsureRuleClass defines the "__rule" system class if absent. The
// engine calls it once at startup.
func (m *Manager) EnsureRuleClass() error {
	t := m.txns.Begin()
	t.Internal = true
	err := m.objects.DefineClass(t, object.Class{
		Name: RuleClass,
		Attrs: []object.AttrDef{
			{Name: "name", Kind: datum.KindString, Required: true},
			{Name: "def", Kind: datum.KindString, Required: true},
			{Name: "enabled", Kind: datum.KindBool},
		},
	})
	if errors.Is(err, object.ErrClassExists) {
		err = nil
	}
	if err != nil {
		t.Abort()
		return err
	}
	return t.Commit()
}

// CreateRule compiles, persists, and activates a rule (§6.1). Rule
// management operations run in their own (internal) transactions; the
// rule is active once CreateRule returns.
func (m *Manager) CreateRule(def Def) (*Rule, error) {
	r, err := compile(def)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	_, dup := m.byName[def.Name]
	m.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("rule: %q already exists", def.Name)
	}
	attrs, err := encodeDef(def, r.Enabled)
	if err != nil {
		return nil, err
	}
	t := m.txns.Begin()
	t.Internal = true
	oid, err := m.objects.Create(t, RuleClass, attrs)
	if err != nil {
		t.Abort()
		return nil, err
	}
	if err := t.Commit(); err != nil {
		return nil, err
	}
	r.OID = oid
	if err := m.register(r); err != nil {
		return nil, err
	}
	return r, nil
}

// register installs a compiled rule into the runtime maps, the
// condition graph, the event detectors and its subscription's
// dispatch table. Rules with identical event specifications SHARE one
// detector subscription: a single occurrence then triggers them
// together, and per §3.2 "for rules with the same event and E-C
// coupling mode, the condition evaluation transactions will execute
// concurrently" as siblings. The whole registration is one critical
// section, so racing creators of one new specification cannot define
// it twice.
func (m *Manager) register(r *Rule) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.registerLocked(r)
}

func (m *Manager) registerLocked(r *Rule) error {
	if m.det == nil {
		return errors.New("rule: detectors not wired")
	}
	key := r.Spec.String()
	sub, shared := m.specSubs[key]
	if !shared {
		var err error
		if sub, err = m.det.Define(r.Spec); err != nil {
			return err
		}
		m.specSubs[key] = sub
		st := &subscription{}
		st.table.Store(&dispatchTable{})
		m.subs.Store(sub, st)
	}
	r.sub = sub
	r.guards = m.eval.AddRule(uint64(r.OID), r.Condition)
	r.access = chooseAccess(r.guards)
	m.rules[r.OID] = r
	m.byName[r.Name] = r.OID
	st := m.subscription(sub)
	st.rules++
	if r.Enabled {
		st.table.Store(st.table.Load().with(r))
	}
	m.syncSubEnablementLocked(sub)
	return nil
}

func (m *Manager) subscription(sub event.SubID) *subscription {
	v, _ := m.subs.Load(sub)
	st, _ := v.(*subscription)
	return st
}

// syncSubEnablementLocked enables the detector subscription iff any
// rule sharing it is enabled; individually disabled rules are simply
// absent from the dispatch table.
func (m *Manager) syncSubEnablementLocked(sub event.SubID) {
	if m.subscription(sub).table.Load().size() > 0 {
		m.det.Enable(sub)
	} else {
		m.det.Disable(sub)
	}
}

// DeleteRule removes a rule: its object is deleted under a write lock
// (blocking until in-flight firings that hold the read lock finish),
// its condition leaves the graph, and its event detection ceases if
// no other rule uses the event (§5.3).
func (m *Manager) DeleteRule(name string) error {
	m.mu.RLock()
	oid, ok := m.byName[name]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("rule: no rule %q", name)
	}
	t := m.txns.Begin()
	t.Internal = true
	if err := m.objects.Delete(t, oid); err != nil { // X lock on the rule object
		t.Abort()
		return err
	}
	if err := t.Commit(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Looked up again: an update may have replaced the rule since.
	if r := m.rules[oid]; r != nil {
		m.unregisterLocked(r)
	}
	return nil
}

// unregisterLocked removes a rule from the runtime maps, the condition
// graph, the dispatch table, and — when it was the last rule on its
// event — the detectors (§5.3: detection ceases when the last rule
// using the event is deleted).
func (m *Manager) unregisterLocked(r *Rule) {
	m.eval.RemoveRule(uint64(r.OID))
	delete(m.rules, r.OID)
	delete(m.byName, r.Name)
	st := m.subscription(r.sub)
	if r.Enabled {
		st.table.Store(st.table.Load().without(r))
	}
	if st.rules--; st.rules == 0 {
		m.subs.Delete(r.sub)
		delete(m.specSubs, r.Spec.String())
		m.det.Delete(r.sub)
		return
	}
	m.syncSubEnablementLocked(r.sub)
}

// UpdateRule replaces an existing rule's definition in place (§2.2
// lists modify among the rule operations). The rule object keeps its
// OID; the write lock blocks until in-flight firings release their
// read locks, so no firing observes a half-updated rule.
func (m *Manager) UpdateRule(def Def) (*Rule, error) {
	m.mu.RLock()
	oid, ok := m.byName[def.Name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rule: no rule %q", def.Name)
	}
	r, err := compile(def)
	if err != nil {
		return nil, err
	}
	attrs, err := encodeDef(def, r.Enabled)
	if err != nil {
		return nil, err
	}
	t := m.txns.Begin()
	t.Internal = true
	if err := m.objects.Modify(t, oid, attrs); err != nil { // X lock
		t.Abort()
		return nil, err
	}
	if err := t.Commit(); err != nil {
		return nil, err
	}
	r.OID = oid
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.rules[oid]; old != nil {
		r.fired.Store(old.fired.Load())
		m.unregisterLocked(old)
	}
	if err := m.registerLocked(r); err != nil {
		return nil, err
	}
	return r, nil
}

// setEnabled implements Enable/Disable (§2.2: they take write locks —
// "we think of enable and disable as modifying a rule").
func (m *Manager) setEnabled(name string, enabled bool) error {
	m.mu.RLock()
	oid, ok := m.byName[name]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("rule: no rule %q", name)
	}
	t := m.txns.Begin()
	t.Internal = true
	if err := m.objects.Modify(t, oid, map[string]datum.Value{"enabled": datum.Bool(enabled)}); err != nil {
		t.Abort()
		return err
	}
	if err := t.Commit(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Looked up again: an update may have replaced the rule since.
	r := m.rules[oid]
	if r == nil || r.Enabled == enabled {
		return nil
	}
	r.Enabled = enabled
	st := m.subscription(r.sub)
	if enabled {
		st.table.Store(st.table.Load().with(r))
	} else {
		st.table.Store(st.table.Load().without(r))
	}
	m.syncSubEnablementLocked(r.sub)
	return nil
}

// EnableRule re-enables automatic firing.
func (m *Manager) EnableRule(name string) error { return m.setEnabled(name, true) }

// DisableRule suspends automatic firing. The rule can still be fired
// manually with Fire.
func (m *Manager) DisableRule(name string) error { return m.setEnabled(name, false) }

// GetRule returns a registered rule by name.
func (m *Manager) GetRule(name string) (*Rule, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	oid, ok := m.byName[name]
	return m.rules[oid], ok
}

// Rules lists registered rules in name order.
func (m *Manager) Rules() []*Rule {
	m.mu.RLock()
	out := make([]*Rule, 0, len(m.rules))
	for _, r := range m.rules {
		out = append(out, r)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Restore reloads persisted rules from the "__rule" extent (after a
// restart). Rules that fail to compile are skipped with an error
// report.
func (m *Manager) Restore() error {
	t := m.txns.Begin()
	t.Internal = true
	defer t.Commit()
	type stored struct {
		oid     datum.OID
		def     Def
		enabled bool
	}
	var all []stored
	var firstErr error
	reader := m.objects.Reader(t)
	err := reader.ScanClass(RuleClass, func(oid datum.OID, attrs map[string]datum.Value) bool {
		def, enabled, err := decodeDef(attrs)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return true
		}
		all = append(all, stored{oid, def, enabled})
		return true
	})
	if err != nil {
		return err
	}
	for _, s := range all {
		r, err := compile(s.def)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rule: restore %q: %w", s.def.Name, err)
			}
			continue
		}
		r.OID = s.oid
		r.Enabled = s.enabled
		if err := m.register(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- event signal processing (§6.2) ---

// firing is one scheduled rule firing.
type firing struct {
	rule *Rule
	sig  event.Signal
}

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

// HandleEmit is the detectors' sink: it implements the §6.2 protocol.
// It runs synchronously on the goroutine where the event occurred, so
// the triggering operation is suspended until immediate processing
// completes; its error return propagates to that operation.
//
// Which rules the occurrence triggers is read off the subscription's
// dispatch table: every enabled rule without guards, plus the guarded
// ones the signal's bindings do not rule out. A rule whose guard is
// definitely false costs a lookup here — no goroutine, transaction,
// rule lock or snapshot.
func (m *Manager) HandleEmit(sub event.SubID, sig event.Signal) error {
	m.n.signals.Add(1)
	st := m.subscription(sub)
	if st == nil {
		return nil // deleted since the detectors matched it
	}
	groups, filtered := st.table.Load().match(sig.Bindings)
	immediate, deferred, separate := groups[Immediate], groups[Deferred], groups[Separate]
	if filtered > 0 {
		m.n.filtered.Add(uint64(filtered))
	}
	triggered := len(immediate) + len(deferred) + len(separate)
	if triggered == 0 {
		return nil
	}
	m.n.triggered.Add(uint64(triggered))

	trigger, _ := m.txns.Find(sig.Txn)
	// The signal may arrive while the transaction is already committing
	// (commit events); children are still allowed then, but not after
	// termination.
	if trigger != nil && (trigger.State() == txn.Committed || trigger.State() == txn.Aborted) {
		trigger = nil
	}

	var sp *obs.Span
	if m.tr.On() { // spares building the span name when tracing is off
		sp = m.openSpan(trigger, "signal", sig.Spec.String(), "", uint64(sig.Txn))
	}

	// Separate firings never wait (§6.2 "Meanwhile, the Rule Manager
	// continues"). Without a triggering transaction, deferred and
	// immediate firings degrade to separate ones.
	spawn := separate
	if trigger == nil && len(deferred)+len(immediate) > 0 {
		spawn = slices.Concat(separate, deferred, immediate)
		deferred, immediate = nil, nil
	}
	for _, r := range spawn {
		sp.Mark("separate-spawn", r.Name, "separate", "", 0, 0)
		m.spawnSeparate(r, sig)
	}

	// Deferred firings join the triggering transaction's set.
	if len(deferred) > 0 {
		set, _ := trigger.DeferredData.(*deferredSet)
		if set == nil {
			set = &deferredSet{}
			trigger.DeferredData = set
		}
		set.add(deferredEntry{sig: sig, rules: deferred})
		m.n.deferred.Add(uint64(len(deferred)))
		for _, r := range deferred {
			sp.Mark("deferred-queue", r.Name, "deferred", "", 0, 0)
		}
	}

	// Immediate firings run now, in subtransactions of the trigger,
	// which is suspended until they all terminate.
	if len(immediate) > 0 {
		m.n.immediate.Add(uint64(len(immediate)))
		if err := m.fireGroup(trigger, immediate, sig, sp, "immediate"); err != nil {
			sp.End("aborted")
			return err
		}
	}
	sp.End("ok")
	return nil
}

// openSpan starts a firing span: a child of the innermost open firing
// span bound to t or one of its ancestors (a cascade), or the root of a
// fresh firing tree when there is none. It returns nil when tracing is
// off.
func (m *Manager) openSpan(t *txn.Txn, kind, name, mode string, txnID uint64) *obs.Span {
	if !m.tr.On() {
		return nil
	}
	for ; t != nil; t = t.Parent() {
		if anchor := m.tr.Bound(uint64(t.ID())); anchor != nil {
			return anchor.StartChild(kind, name, mode, txnID, 0)
		}
	}
	return m.tr.StartRoot(kind, name, mode, txnID, 0)
}

// fireGroup processes a group of rule firings anchored at parent:
// all conditions are evaluated in one shared subtransaction (the
// condition graph makes this the multiple-query optimization of
// §5.5); its locks fold into parent at commit, preserving two-phase
// locking. The satisfied rules' actions then execute concurrently as
// sibling subtransactions of parent (§3.2: no conflict resolution —
// serializability is the correctness criterion).
func (m *Manager) fireGroup(parent *txn.Txn, rules []*Rule, sig event.Signal, sp *obs.Span, mode string) error {
	gc, err := parent.Child()
	if err != nil {
		return fmt.Errorf("rule: condition transaction: %w", err)
	}
	gc.Internal = true
	csp := sp.StartChild("cond", groupName(rules), mode, uint64(gc.ID()), uint64(parent.ID()))

	ids := make([]uint64, 0, len(rules))
	for _, r := range rules {
		// Firing takes a read lock on the rule object (§2.2).
		if err := gc.Lock(ruleItem(r.OID), lock.Shared); err != nil {
			gc.Abort()
			csp.End("aborted")
			return err
		}
		ids = append(ids, uint64(r.OID))
	}
	// The whole condition evaluation reads one pinned snapshot LSN
	// plus the triggering transaction's own uncommitted effects (gc is
	// its descendant): the as-of-commit view of §4.2. Commits landing
	// *during* the evaluation are invisible, so every condition in the
	// group judges the same database state.
	reader := m.objects.SnapshotReader(gc)
	outcomes, err := m.eval.Evaluate(reader, sig.Bindings, false, ids)
	reader.Close()
	if err != nil {
		gc.Abort()
		csp.End("aborted")
		return err
	}
	if err := gc.Commit(); err != nil {
		csp.End("aborted")
		return err
	}

	var wave1, wave2 []firing // CA immediate, then CA deferred
	for _, r := range rules {
		oc := outcomes[uint64(r.OID)]
		if oc == nil || !oc.Satisfied {
			csp.Mark("rule", r.Name, r.CA.String(), "not-satisfied", 0, 0)
			continue
		}
		m.n.satisfied.Add(1)
		switch r.CA {
		case Immediate:
			wave1 = append(wave1, firing{r, sig})
		case Deferred:
			wave2 = append(wave2, firing{r, sig})
		case Separate:
			csp.Mark("separate-spawn", r.Name, "separate", "", 0, 0)
			m.spawnAction(r, sig, oc)
		}
	}
	csp.End("ok")
	if err := m.runWave(parent, wave1, outcomes, sp); err != nil {
		return err
	}
	return m.runWave(parent, wave2, outcomes, sp)
}

// runWave executes the actions of a wave concurrently as sibling
// subtransactions of parent, waiting for all and returning the first
// error (whose firing subtransaction is aborted).
func (m *Manager) runWave(parent *txn.Txn, wave []firing, outcomes map[uint64]*cond.Outcome, sp *obs.Span) error {
	if len(wave) == 0 {
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(wave))
	for i, f := range wave {
		ac, err := parent.Child()
		if err != nil {
			errs[i] = err
			break
		}
		ac.Internal = true
		asp := sp.StartChild("action", f.rule.Name, f.rule.CA.String(), uint64(ac.ID()), uint64(parent.ID()))
		wg.Add(1)
		go func(i int, f firing, ac *txn.Txn, asp *obs.Span) {
			defer wg.Done()
			errs[i] = m.act(ac, f.rule, f.sig, outcomes[uint64(f.rule.OID)].Primary, asp)
		}(i, f, ac, asp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// spawnSeparate runs one rule firing in its own top-level
// transaction, concurrent with the trigger (§3.2 separate coupling).
func (m *Manager) spawnSeparate(r *Rule, sig event.Signal) {
	m.n.separate.Add(1)
	m.sep.Add(1)
	go func() {
		defer m.sep.Done()
		t := m.txns.Begin()
		t.Internal = true
		sp := m.tr.StartRoot("separate", r.Name, r.EC.String()+"/"+r.CA.String(), uint64(t.ID()), 0)
		if err := t.Lock(ruleItem(r.OID), lock.Shared); err != nil {
			t.Abort()
			sp.End("aborted")
			m.reportAsync(r.Name, err)
			return
		}
		// Separate firings evaluate against their own pinned snapshot
		// too: one consistent view per evaluation.
		reader := m.objects.SnapshotReader(t)
		outcomes, err := m.eval.Evaluate(reader, sig.Bindings, true, []uint64{uint64(r.OID)})
		reader.Close()
		if err != nil {
			t.Abort()
			sp.End("aborted")
			m.reportAsync(r.Name, err)
			return
		}
		oc := outcomes[uint64(r.OID)]
		if oc == nil || !oc.Satisfied {
			t.Commit()
			sp.End("not-satisfied")
			return
		}
		m.n.satisfied.Add(1)
		switch r.CA {
		case Immediate, Deferred:
			// Condition and action together in the separate
			// transaction (the paper's SAA rules use exactly this).
			if err := m.act(t, r, sig, oc.Primary, sp); err != nil {
				m.reportAsync(r.Name, err)
			}
		case Separate:
			if err := t.Commit(); err != nil {
				sp.End("aborted")
				m.reportAsync(r.Name, err)
				return
			}
			sp.Mark("separate-spawn", r.Name, "separate", "", 0, 0)
			sp.End("ok")
			m.spawnAction(r, sig, oc)
		}
	}()
}

// spawnAction runs a satisfied rule's action in a fresh top-level
// transaction (C-A separate coupling).
func (m *Manager) spawnAction(r *Rule, sig event.Signal, oc *cond.Outcome) {
	m.sep.Add(1)
	go func() {
		defer m.sep.Done()
		t := m.txns.Begin()
		t.Internal = true
		sp := m.tr.StartRoot("action", r.Name, "separate", uint64(t.ID()), 0)
		if err := m.act(t, r, sig, oc.Primary, sp); err != nil {
			m.reportAsync(r.Name, err)
		}
	}()
}

// act runs a satisfied rule's action in t, then commits t, or aborts
// it when the action fails. sp, the firing's span, ends with the
// outcome.
func (m *Manager) act(t *txn.Txn, r *Rule, sig event.Signal, primary *query.Result, sp *obs.Span) error {
	if err := m.execAction(t, r, sig, primary); err != nil {
		t.Abort()
		sp.End("aborted")
		return fmt.Errorf("rule %q action: %w", r.Name, err)
	}
	if err := t.Commit(); err != nil {
		sp.End("aborted")
		return fmt.Errorf("rule %q action commit: %w", r.Name, err)
	}
	sp.End("fired")
	return nil
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
				dsp.End("aborted")
				return err
			}
		}
	}
	dsp.End("ok")
	return nil
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

// --- manual firing (§2.2 Fire) ---

// Fire fires a rule manually, regardless of its enabled state. If tx
// is non-nil the firing is processed as an immediate firing anchored
// at tx; otherwise it runs as a separate firing (Quiesce to await
// it). args become the event bindings seen by condition and action.
func (m *Manager) Fire(tx *txn.Txn, name string, args map[string]datum.Value) error {
	m.mu.RLock()
	oid, ok := m.byName[name]
	r := m.rules[oid]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("rule: no rule %q", name)
	}
	sig := event.Signal{Spec: r.Spec, Bindings: args}
	if m.det != nil {
		sig.Time = m.det.Now()
	}
	if tx != nil {
		sig.Txn = tx.ID()
		sp := m.openSpan(tx, "fire", r.Name, "", uint64(tx.ID()))
		if err := m.fireGroup(tx, []*Rule{r}, sig, sp, "fire"); err != nil {
			sp.End("aborted")
			return err
		}
		sp.End("ok")
		return nil
	}
	m.spawnSeparate(r, sig)
	return nil
}

// --- action execution ---

// execAction runs the rule's action steps in tx: once per row of the
// condition's primary result, or once with the event bindings alone
// when the condition was empty.
func (m *Manager) execAction(tx *txn.Txn, r *Rule, sig event.Signal, primary *query.Result) error {
	tm := m.met.Timer(obs.HActionExec)
	defer tm.Done()
	m.n.actionsExecuted.Add(1)
	r.fired.Add(1)
	rows := 1
	if primary != nil {
		rows = len(primary.Rows)
	}
	for i := 0; i < rows; i++ {
		var vars map[string]datum.Value
		if primary != nil {
			vars = primary.RowBindings(i)
		}
		for stepIdx, st := range r.Steps {
			if err := m.execStep(tx, r, st, vars, sig.Bindings); err != nil {
				return fmt.Errorf("step %d (%s): %w", stepIdx+1, st.kind, err)
			}
		}
	}
	return nil
}

func (m *Manager) execStep(tx *txn.Txn, r *Rule, st compiledStep,
	vars, eventArgs map[string]datum.Value) error {

	reader := m.objects.Reader(tx)
	switch st.kind {
	case StepCreate:
		attrs, err := evalExprs(st.attrs, reader, vars, eventArgs)
		if err != nil {
			return err
		}
		_, err = m.objects.Create(tx, st.class, attrs)
		return err

	case StepModify:
		target, err := st.target.Eval(reader, vars, eventArgs)
		if err != nil {
			return err
		}
		if target.Kind() != datum.KindOID {
			return fmt.Errorf("target expression yielded %s, want an object", target.Kind())
		}
		attrs, err := evalExprs(st.attrs, reader, vars, eventArgs)
		if err != nil {
			return err
		}
		return m.objects.Modify(tx, target.AsOID(), attrs)

	case StepDelete:
		target, err := st.target.Eval(reader, vars, eventArgs)
		if err != nil {
			return err
		}
		if target.Kind() != datum.KindOID {
			return fmt.Errorf("target expression yielded %s, want an object", target.Kind())
		}
		return m.objects.Delete(tx, target.AsOID())

	case StepSignal:
		args, err := evalExprs(st.args, reader, vars, eventArgs)
		if err != nil {
			return err
		}
		if m.det == nil {
			return errors.New("detectors not wired")
		}
		_, err = m.det.SignalExternal(st.event, tx.ID(), args)
		return err

	case StepRequest:
		if m.app == nil {
			return fmt.Errorf("no application serves operation %q", st.op)
		}
		args, err := evalExprs(st.args, reader, vars, eventArgs)
		if err != nil {
			return err
		}
		_, err = m.app.Dispatch(st.op, args)
		return err

	case StepCall:
		fn, _ := m.calls.Load(st.fn)
		if fn == nil {
			return fmt.Errorf("no registered callback %q", st.fn)
		}
		return fn.(CallFunc)(tx, mergedBindings(vars, eventArgs))

	case StepAbort:
		return fmt.Errorf("%w (rule %q)", AbortRequested, r.Name)

	default:
		return fmt.Errorf("unknown step kind %q", st.kind)
	}
}

func mergedBindings(vars, eventArgs map[string]datum.Value) map[string]datum.Value {
	out := make(map[string]datum.Value, len(vars)+len(eventArgs))
	for k, v := range eventArgs {
		out[k] = v
	}
	for k, v := range vars {
		out[k] = v
	}
	return out
}

func groupName(rules []*Rule) string {
	if len(rules) == 1 {
		return rules[0].Name
	}
	return fmt.Sprintf("group(%d)", len(rules))
}

func ruleItem(oid datum.OID) lock.Item { return lock.Item("obj/" + oid.String()) }
