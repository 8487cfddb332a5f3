// Package core assembles the HiPAC functional components (Figure 5.1
// of the paper) into one engine: the Object Manager and Transaction
// Manager provide an object-oriented DBMS with nested transactions;
// the Event Detectors, Rule Manager, and Condition Evaluator
// implement ECA rules on top. The engine's API mirrors the four
// interface modules of Figure 4.1 — operations on data, operations on
// transactions, operations on events, and application operations —
// and is re-exported as the library's public API by the root hipac
// package.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cond"
	"repro/internal/datum"
	"repro/internal/event"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rule"
	"repro/internal/storage"
	"repro/internal/txn"
)

// EventClass is the system class persisting external event
// definitions (§4.1 "define").
const EventClass = "__event"

// Options configures an Engine.
type Options struct {
	// Dir is the durability directory (WAL + snapshot). Empty runs
	// fully in memory.
	Dir string
	// NoSync disables fsync on the WAL (benchmarks, tests).
	NoSync bool
	// CheckpointInterval, when >0 and Dir is set, runs a background
	// fuzzy checkpoint at this period, bounding WAL growth and recovery
	// replay time. Checkpoints do not quiesce commits. 0 disables the
	// loop; Checkpoint can still be called manually.
	CheckpointInterval time.Duration
	// CheckpointAfterBytes, when >0 and Dir is set, additionally
	// triggers a checkpoint whenever the WAL has grown by this many
	// bytes since the last one completed — demand-driven reclamation
	// that tracks the write rate instead of the wall clock. 0 disables
	// the size trigger.
	CheckpointAfterBytes uint64
	// Clock supplies time for temporal events; nil means the wall
	// clock. Tests pass a *clock.Virtual.
	Clock clock.Clock
	// Obs configures the observability subsystem (histograms and the
	// firing-tree tracer). The zero value enables it with defaults;
	// set Obs.Disabled to run without instrumentation.
	Obs obs.Options
}

// AppHandler serves one application operation invoked by rule actions
// (§4.1 role reversal: HiPAC is the client, the application the
// server).
type AppHandler func(args map[string]datum.Value) (map[string]datum.Value, error)

// Engine is an active DBMS instance.
type Engine struct {
	clk      clock.Clock
	planOpts plan.Options // the planner executor's observer

	Txns       *txn.Manager
	Locks      *lock.Manager
	Store      *storage.Store
	Objects    *object.Manager
	Detectors  *event.Detectors
	Conditions *cond.Evaluator
	Rules      *rule.Manager
	Obs        *obs.Obs // always non-nil after Open

	mu        sync.RWMutex
	appOps    map[string]AppHandler
	extEvents map[string][]string // defined external events -> param names
	fallback  rule.AppDispatcher  // e.g. the IPC server's remote dispatch
	async     *asyncSink

	ckptStop chan struct{} // closed by Close to stop the checkpoint loop
	ckptDone chan struct{} // closed by the loop on exit
}

// asyncSink collects errors from asynchronous work (temporal and
// separate-coupled firings, background checkpoints). It is a separate
// object because the store, built before the Engine, needs somewhere to
// report size-triggered checkpoint failures. It keeps the first
// maxAsyncErrors between drains and only counts the rest.
type asyncSink struct {
	mu   sync.Mutex
	errs []error
	n    int // recorded since the last drain
}

const maxAsyncErrors = 64

func (s *asyncSink) record(err error) {
	s.mu.Lock()
	if s.n++; s.n <= maxAsyncErrors {
		s.errs = append(s.errs, err)
	}
	s.mu.Unlock()
}

func (s *asyncSink) drain() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.errs
	if s.n > len(out) {
		out = append(out, fmt.Errorf("%d more asynchronous errors dropped", s.n-len(out)))
	}
	s.errs, s.n = nil, 0
	return out
}

// Open creates (or reopens, when opts.Dir holds prior state) an
// engine.
func Open(opts Options) (*Engine, error) {
	clk := opts.Clock
	if clk == nil {
		clk = clock.Real()
	}
	o := obs.New(opts.Obs)
	sink := &asyncSink{}
	txns, locks := txn.NewSystem()
	txns.SetObserver(o.Metrics())
	locks.SetObserver(o.Metrics())
	store, err := storage.Open(txns, storage.Options{Dir: opts.Dir, NoSync: opts.NoSync,
		Obs:                  o.Metrics(),
		CheckpointAfterBytes: opts.CheckpointAfterBytes,
		OnAsyncError:         sink.record})
	if err != nil {
		return nil, err
	}
	txns.Register(store)
	objects := object.NewManager(store, nil)
	planOpts := plan.Options{Obs: o.Metrics()}
	conds := cond.New(planOpts)
	conds.SetObserver(o.Metrics())
	rules := rule.NewManager(txns, objects, conds)
	rules.SetObs(o)
	rules.SetErrorHandler(func(_ string, err error) { sink.record(err) })

	e := &Engine{
		clk:        clk,
		planOpts:   planOpts,
		Txns:       txns,
		Locks:      locks,
		Store:      store,
		Objects:    objects,
		Conditions: conds,
		Rules:      rules,
		Obs:        o,
		appOps:     map[string]AppHandler{},
		extEvents:  map[string][]string{},
		async:      sink,
	}
	det := event.New(clk, rules.HandleEmit)
	det.SetObserver(o.Metrics())
	det.SetAsyncErrorHandler(sink.record)
	e.Detectors = det
	rules.SetDetectors(det)
	rules.SetAppDispatcher(dispatcher{e})
	objects.SetSink(det)
	txns.AddPreCommitHook(rules.ProcessCommit)
	txns.AddListener(func(t *txn.Txn, committed bool) {
		if !committed {
			rules.ProcessAbort(t)
		}
	})

	for _, step := range []func() error{rules.EnsureRuleClass, e.ensureEventClass, e.restoreEvents, rules.Restore} {
		if err := step(); err != nil {
			rules.Close()
			store.Close()
			return nil, err
		}
	}
	if opts.Dir != "" && opts.CheckpointInterval > 0 {
		e.ckptStop = make(chan struct{})
		e.ckptDone = make(chan struct{})
		go e.checkpointLoop(opts.CheckpointInterval)
	}
	return e, nil
}

// checkpointLoop runs fuzzy checkpoints at a fixed period until Close.
// Failures are recorded as async errors; the loop keeps going (a
// transient full disk should not permanently stop WAL reclamation).
func (e *Engine) checkpointLoop(interval time.Duration) {
	defer close(e.ckptDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.ckptStop:
			return
		case <-t.C:
			if _, err := e.Store.Checkpoint(); err != nil {
				e.async.record(fmt.Errorf("checkpoint: %w", err))
			}
		}
	}
}

// Close stops the checkpoint loop and the event detectors' timers,
// waits for asynchronous rule firings and stops the rule manager's
// firing workers, and closes the store.
func (e *Engine) Close() error {
	if e.ckptStop != nil {
		close(e.ckptStop)
		<-e.ckptDone
	}
	e.Detectors.Close()
	e.Rules.Close()
	return e.Store.Close()
}

// Clock returns the engine's clock.
func (e *Engine) Clock() clock.Clock { return e.clk }

// Checkpoint runs one fuzzy checkpoint — a delta of the records
// dirtied since the last one, or a full snapshot when the chain is
// due for compaction — then truncates the WAL prefix the chain
// covers. It does not quiesce: commits proceed concurrently.
func (e *Engine) Checkpoint() (storage.CheckpointResult, error) {
	return e.Store.Checkpoint()
}

// Quiesce waits for every separate rule firing, queued or running.
func (e *Engine) Quiesce() { e.Rules.Quiesce() }

// AsyncErrors drains the errors recorded from asynchronous work:
// temporal or separate-coupled rule processing and background
// (interval- or size-triggered) checkpoints: the first maxAsyncErrors,
// then one error counting those dropped.
func (e *Engine) AsyncErrors() []error {
	return e.async.drain()
}

// --- operations on transactions (Fig 4.1) ---

// Begin starts a top-level transaction. Nested transactions come from
// (*txn.Txn).Child.
func (e *Engine) Begin() *txn.Txn { return e.Txns.Begin() }

// --- operations on data (Fig 4.1) ---

// DefineClass defines a class within tx.
func (e *Engine) DefineClass(tx *txn.Txn, c object.Class) error {
	return e.Objects.DefineClass(tx, c)
}

// DropClass drops a class within tx.
func (e *Engine) DropClass(tx *txn.Txn, name string) error {
	return e.Objects.DropClass(tx, name)
}

// Create creates an object.
func (e *Engine) Create(tx *txn.Txn, class string, attrs map[string]datum.Value) (datum.OID, error) {
	tm := e.Obs.Metrics().Timer(obs.HOp)
	defer tm.Done()
	return e.Objects.Create(tx, class, attrs)
}

// Modify updates an object's attributes.
func (e *Engine) Modify(tx *txn.Txn, oid datum.OID, updates map[string]datum.Value) error {
	tm := e.Obs.Metrics().Timer(obs.HOp)
	defer tm.Done()
	return e.Objects.Modify(tx, oid, updates)
}

// Delete removes an object.
func (e *Engine) Delete(tx *txn.Txn, oid datum.OID) error {
	tm := e.Obs.Metrics().Timer(obs.HOp)
	defer tm.Done()
	return e.Objects.Delete(tx, oid)
}

// Get fetches an object.
func (e *Engine) Get(tx *txn.Txn, oid datum.OID) (storage.Record, error) {
	tm := e.Obs.Metrics().Timer(obs.HOp)
	defer tm.Done()
	return e.Objects.Get(tx, oid)
}

// GetForUpdate returns the object after taking tx's exclusive lock —
// use it for read-modify-write; see object.Manager.GetForUpdate.
func (e *Engine) GetForUpdate(tx *txn.Txn, oid datum.OID) (storage.Record, error) {
	tm := e.Obs.Metrics().Timer(obs.HOp)
	defer tm.Done()
	return e.Objects.GetForUpdate(tx, oid)
}

// Classes lists class definitions visible to tx.
func (e *Engine) Classes(tx *txn.Txn) ([]object.Class, error) {
	return e.Objects.Classes(tx)
}

// Query parses and evaluates a select statement within tx. args, if
// non-nil, bind event.<name> references in the query.
func (e *Engine) Query(tx *txn.Txn, src string, args map[string]datum.Value) (*query.Result, error) {
	tm := e.Obs.Metrics().Timer(obs.HOp)
	defer tm.Done()
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	// Pin one snapshot for the whole evaluation: every scan and fetch
	// of this query sees the same committed state even while
	// committers land concurrently.
	reader := e.Objects.SnapshotReader(tx)
	defer reader.Close()
	return plan.Run(q, reader, args, e.planOpts)
}

// Explain parses src and returns the physical plan the cost-based
// planner would execute for it, as text.
func (e *Engine) Explain(tx *txn.Txn, src string, args map[string]datum.Value) (string, error) {
	q, err := query.Parse(src)
	if err != nil {
		return "", err
	}
	reader := e.Objects.SnapshotReader(tx)
	defer reader.Close()
	cat, _ := query.Reader(reader).(plan.Catalog)
	return plan.Build(q, cat, args, e.planOpts).Explain(), nil
}

// --- operations on events (Fig 4.1) ---

func (e *Engine) ensureEventClass() error {
	t := e.Txns.Begin()
	t.Internal = true
	err := e.Objects.DefineClass(t, object.Class{
		Name: EventClass,
		Attrs: []object.AttrDef{
			{Name: "name", Kind: datum.KindString, Required: true},
			{Name: "params", Kind: datum.KindList},
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

func (e *Engine) restoreEvents() error {
	t := e.Txns.Begin()
	t.Internal = true
	defer t.Commit()
	return e.Objects.Reader(t).ScanClass(EventClass, func(_ datum.OID, row datum.Row) bool {
		var params []string
		list, _ := row.Get("params")
		for _, p := range list.AsList() {
			params = append(params, p.AsString())
		}
		name, _ := row.Get("name")
		e.extEvents[name.AsString()] = params
		return true
	})
}

// DefineEvent defines an application-specific external event with the
// given formal parameter names (§4.1 "define"). The definition is
// durable.
func (e *Engine) DefineEvent(name string, params ...string) error {
	if name == "" {
		return errors.New("core: event needs a name")
	}
	e.mu.Lock()
	if _, dup := e.extEvents[name]; dup {
		e.mu.Unlock()
		return fmt.Errorf("core: event %q already defined", name)
	}
	e.extEvents[name] = params
	e.mu.Unlock()

	vals := make([]datum.Value, len(params))
	for i, p := range params {
		vals[i] = datum.Str(p)
	}
	t := e.Txns.Begin()
	t.Internal = true
	if _, err := e.Objects.Create(t, EventClass, map[string]datum.Value{
		"name":   datum.Str(name),
		"params": datum.List(vals...),
	}); err != nil {
		t.Abort()
		e.mu.Lock()
		delete(e.extEvents, name)
		e.mu.Unlock()
		return err
	}
	return t.Commit()
}

// EventDefined reports whether an external event is defined, with its
// parameter names.
func (e *Engine) EventDefined(name string) ([]string, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, ok := e.extEvents[name]
	return p, ok
}

// SignalEvent signals an application-defined event (§4.1 "signal").
// tx may be nil for occurrences outside any transaction. The call
// returns after immediate rule processing; its error is the firing
// error, if any (e.g. an integrity rule's abort request).
func (e *Engine) SignalEvent(tx *txn.Txn, name string, args map[string]datum.Value) error {
	e.mu.RLock()
	params, defined := e.extEvents[name]
	e.mu.RUnlock()
	if !defined {
		return fmt.Errorf("core: event %q is not defined", name)
	}
	for _, p := range params {
		if _, ok := args[p]; !ok {
			return fmt.Errorf("core: event %q needs argument %q", name, p)
		}
	}
	var id lock.TxnID
	if tx != nil {
		if err := tx.CheckOperable(); err != nil {
			return err
		}
		id = tx.ID()
	}
	_, err := e.Detectors.SignalExternal(name, id, args)
	return err
}

// --- application operations (Fig 4.1) ---

// RegisterAppOperation registers an in-process handler for an
// application operation that rule actions may request.
func (e *Engine) RegisterAppOperation(name string, h AppHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.appOps[name] = h
}

// UnregisterAppOperation removes a handler.
func (e *Engine) UnregisterAppOperation(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.appOps, name)
}

// SetFallbackDispatcher installs a dispatcher consulted for
// operations with no in-process handler (the IPC server routes these
// to connected application programs).
func (e *Engine) SetFallbackDispatcher(d rule.AppDispatcher) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fallback = d
}

// dispatcher adapts the engine's registries to rule.AppDispatcher.
type dispatcher struct{ e *Engine }

// Dispatch routes an application request from a rule action.
func (d dispatcher) Dispatch(op string, args map[string]datum.Value) (map[string]datum.Value, error) {
	d.e.mu.RLock()
	h := d.e.appOps[op]
	fb := d.e.fallback
	d.e.mu.RUnlock()
	if h != nil {
		return h(args)
	}
	if fb != nil {
		return fb.Dispatch(op, args)
	}
	return nil, fmt.Errorf("core: no application serves operation %q", op)
}

// --- operations on rules ---

// CreateRule defines, persists, and activates an ECA rule.
func (e *Engine) CreateRule(def rule.Def) (*rule.Rule, error) { return e.Rules.CreateRule(def) }

// DeleteRule removes a rule.
func (e *Engine) DeleteRule(name string) error { return e.Rules.DeleteRule(name) }

// UpdateRule replaces a rule's definition (§2.2 "modify"), keeping
// its object identity.
func (e *Engine) UpdateRule(def rule.Def) (*rule.Rule, error) { return e.Rules.UpdateRule(def) }

// EnableRule re-enables automatic firing of a rule.
func (e *Engine) EnableRule(name string) error { return e.Rules.EnableRule(name) }

// DisableRule disables automatic firing of a rule.
func (e *Engine) DisableRule(name string) error { return e.Rules.DisableRule(name) }

// FireRule fires a rule manually (§2.2), regardless of enablement.
func (e *Engine) FireRule(tx *txn.Txn, name string, args map[string]datum.Value) error {
	return e.Rules.Fire(tx, name, args)
}

// RegisterCall registers a Go callback for "call" action steps.
func (e *Engine) RegisterCall(name string, fn rule.CallFunc) { e.Rules.RegisterCall(name, fn) }

// Stats aggregates the counters of all components.
type Stats struct {
	Store      storage.Stats
	Locks      lock.Stats
	Detectors  event.Stats
	Conditions cond.Stats
	Rules      rule.Stats
	LiveTxns   int
}

// Stats returns a snapshot of all component counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Store:      e.Store.Stats(),
		Locks:      e.Locks.Stats(),
		Detectors:  e.Detectors.Stats(),
		Conditions: e.Conditions.Stats(),
		Rules:      e.Rules.Stats(),
		LiveTxns:   e.Txns.Live(),
	}
}
