package event

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cep"
	"repro/internal/clock"
	"repro/internal/datum"
	"repro/internal/lock"
	"repro/internal/obs"
)

// SubID identifies a programmed event subscription (one per rule
// event, created by the Rule Manager via Define — the "Define Event"
// operation of §5.3).
type SubID uint64

// Emit is the Rule Manager's "Signal Event" entry point (§5.4): it is
// called synchronously on the goroutine where the event occurred, so
// the triggering operation is suspended until it returns — exactly
// the suspension the paper's §6.2 prescribes. A non-nil error
// propagates to the triggering operation (e.g. an integrity rule
// requesting abort).
type Emit func(SubID, Signal) error

// Stats counts detector activity.
type Stats struct {
	DatabaseSignals uint64 // primitive database occurrences examined
	ExternalSignals uint64
	TemporalFirings uint64
	Emissions       uint64 // signals delivered to the Rule Manager

	// Composite-event runtime (internal/cep) aggregates across all
	// templates.
	CEPTemplates int    // live operator templates
	CEPInstances int    // live correlation-key NFA instances
	CEPPartials  int    // open partial matches
	CEPFirings   uint64 // composite firings produced
	CEPExpired   uint64 // partial matches reclaimed by expiry/cap/slide
}

type dbKey struct {
	op    Op
	class string
}

type sub struct {
	id       SubID
	spec     Spec
	parent   *sub
	partIdx  int
	children []*sub

	// Read by route without d.mu; written under it.
	disabled, removed atomic.Bool

	// temporal state, under d.mu
	timer     clock.Timer
	fireCount int64

	// The composite operator's sharded automata (internal/cep).
	// Immutable once defined and synchronized by its own shard locks,
	// so parts advance it without Detectors.mu.
	tmpl *cep.Template
}

// indexSnapshot is an immutable copy of the subscription index,
// republished whenever the index changes (Define/Delete — rare) and
// read lock-free by every signal (hot). Slices and maps inside a
// published snapshot are never mutated; the *sub pointers are shared
// with the live index.
type indexSnapshot struct {
	db  map[dbKey][]*sub
	ext map[string][]*sub
}

// Detectors is the set of event detectors: database, temporal,
// external, and the composite-event templates layered over them. It is
// safe for concurrent use.
//
// Signalling takes no detector lock: the subscription index is a
// copy-on-write snapshot under an atomic pointer, a sub's place in the
// tree is immutable after Define and its flags are atomics, and
// composite state lives in cep templates that lock per correlation key
// (a disjunction not at all).
type Detectors struct {
	mu      sync.Mutex // guards subs, the live index maps, cepSubs, and timer state
	clk     clock.Clock
	emit    Emit
	nextSub SubID
	subs    map[SubID]*sub
	dbIndex map[dbKey][]*sub
	extIdx  map[string][]*sub
	idx     atomic.Pointer[indexSnapshot]
	obsm    *obs.Metrics // nil-safe emission-latency observer

	cepSubs []*sub // subscriptions holding a cep template, for stats/GC

	nDBSignals, nExtSignals, nTemporal, nEmissions atomic.Uint64

	asyncErr func(error) // errors from temporal firings (no caller to return to)
}

// SetObserver installs an emission-latency observer. Not safe to call
// concurrently with detection.
func (d *Detectors) SetObserver(o *obs.Metrics) { d.obsm = o }

// New returns detectors that report matched events to emit, using clk
// for temporal events.
func New(clk clock.Clock, emit Emit) *Detectors {
	d := &Detectors{
		clk:     clk,
		emit:    emit,
		nextSub: 1,
		subs:    map[SubID]*sub{},
		dbIndex: map[dbKey][]*sub{},
		extIdx:  map[string][]*sub{},
	}
	d.idx.Store(&indexSnapshot{})
	return d
}

// publishLocked swaps in a fresh immutable snapshot of the index.
// Caller holds d.mu and has just mutated dbIndex/extIdx.
func (d *Detectors) publishLocked() {
	snap := &indexSnapshot{
		db:  make(map[dbKey][]*sub, len(d.dbIndex)),
		ext: make(map[string][]*sub, len(d.extIdx)),
	}
	for k, list := range d.dbIndex {
		snap.db[k] = append([]*sub(nil), list...)
	}
	for name, list := range d.extIdx {
		snap.ext[name] = append([]*sub(nil), list...)
	}
	d.idx.Store(snap)
}

// SetAsyncErrorHandler installs a handler for errors raised by rule
// processing of temporal events, which have no signalling caller to
// return an error to. Not safe to call concurrently with detection.
func (d *Detectors) SetAsyncErrorHandler(f func(error)) { d.asyncErr = f }

// Define programs the detectors to report occurrences of spec,
// returning the subscription id used in subsequent Enable, Disable,
// and Delete calls and in emissions. It rejects exactly the specs
// Parse rejects, before it changes anything.
func (d *Detectors) Define(spec Spec) (SubID, error) {
	if err := validate(spec); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.defineLocked(spec, nil, 0)
	d.publishLocked()
	return s.id, nil
}

// defineLocked programs a validated spec. Caller holds d.mu.
func (d *Detectors) defineLocked(spec Spec, parent *sub, partIdx int) *sub {
	s := &sub{id: d.nextSub, spec: spec, parent: parent, partIdx: partIdx}
	d.nextSub++
	d.subs[s.id] = s
	switch v := spec.(type) {
	case Database:
		k := dbKey{op: v.Op, class: v.Class}
		d.dbIndex[k] = append(d.dbIndex[k], s)
	case External:
		d.extIdx[v.Name] = append(d.extIdx[v.Name], s)
	case Temporal:
		d.defineTemporalLocked(s, v)
	case Composite:
		// The composite's parts are children whose role indices match
		// the template's part numbering.
		def := compOps[v.Op]
		s.tmpl = cep.New(cep.Config{Kind: def.kind, Parts: len(v.Parts), Window: v.Window,
			Count: v.Count, CorrelAttr: v.Correl.Attr, CorrelVar: v.Correl.Var,
			MaxPartials: def.maxPartials}, cep.DefaultShards)
		for i, part := range v.Parts {
			s.children = append(s.children, d.defineLocked(part, s, i))
		}
		d.cepSubs = append(d.cepSubs, s)
		d.scheduleCEPGCLocked(s)
	}
	return s
}

// scheduleCEPGCLocked arms the periodic partial-match GC sweep for a
// windowed template. Caller holds d.mu. Kinds without a time window
// reclaim state inline and need no sweep.
func (d *Detectors) scheduleCEPGCLocked(s *sub) {
	w := s.tmpl.Window()
	if w <= 0 {
		return
	}
	s.timer = d.clk.AfterFunc(w, func() { d.cepGC(s, w) })
}

// cepGC runs one GC sweep over a template's instances and re-arms the
// timer. Expiry compares against the detector clock, so a virtual
// clock drives deterministic reclamation in tests.
func (d *Detectors) cepGC(s *sub, w time.Duration) {
	if s.removed.Load() {
		return
	}
	s.tmpl.GC(d.clk.Now())
	d.obsm.ObserveN(obs.HCEPInstances, uint64(s.tmpl.Stats().Instances))
	d.mu.Lock()
	if !s.removed.Load() {
		s.timer = d.clk.AfterFunc(w, func() { d.cepGC(s, w) })
	}
	d.mu.Unlock()
}

func (d *Detectors) defineTemporalLocked(s *sub, v Temporal) {
	switch {
	case v.Kind == Absolute:
		if delay := v.At.Sub(d.clk.Now()); delay >= 0 { // else already past: never fires
			s.timer = d.clk.AfterFunc(delay, func() { d.temporalFire(s, false) })
		}
	case v.Baseline != nil:
		s.children = append(s.children, d.defineLocked(v.Baseline, s, -1))
	case v.Kind == Relative:
		s.timer = d.clk.AfterFunc(v.Offset, func() { d.temporalFire(s, false) })
	default:
		s.timer = d.clk.AfterFunc(v.Period, func() { d.temporalFire(s, true) })
	}
}

// temporalFire handles a timer expiry for subscription s: it updates
// the timer state under d.mu and routes the occurrence after unlocking.
func (d *Detectors) temporalFire(s *sub, periodic bool) {
	d.mu.Lock()
	if s.removed.Load() || s.disabled.Load() {
		d.mu.Unlock()
		return
	}
	d.nTemporal.Add(1)
	s.fireCount++
	now := d.clk.Now()
	sig := Signal{Spec: s.spec, Time: now, Bindings: map[string]datum.Value{
		"time":  datum.Time(now),
		"count": datum.Int(s.fireCount),
	}}
	if periodic {
		period := s.spec.(Temporal).Period
		s.timer = d.clk.AfterFunc(period, func() { d.temporalFire(s, true) })
	}
	d.mu.Unlock()
	var emits []emission
	d.route(s, sig, &emits)
	if err := d.send(emits); err != nil && d.asyncErr != nil {
		d.asyncErr(err)
	}
}

type emission struct {
	id  SubID
	sig Signal
}

// send dispatches queued emissions (rule processing may re-enter the
// detectors, e.g. an action that signals another event) and returns
// the first error.
func (d *Detectors) send(emits []emission) error {
	d.nEmissions.Add(uint64(len(emits)))
	var first error
	for _, e := range emits {
		tm := d.obsm.Timer(obs.HSignal)
		err := d.emit(e.id, e.sig)
		tm.Done()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// route carries an occurrence on s upward: a top-level subscription
// queues it for emission to the Rule Manager; a composite part offers
// it to its parent's template and routes each firing on; a temporal
// baseline (re)arms its parent's timer. It takes no detector lock. The
// index snapshot a signal matched against may be one Define/Delete
// stale: a just-added subscription is missed (the signal linearizes
// before the define) and a just-deleted one is dropped by its removed
// flag.
func (d *Detectors) route(s *sub, sig Signal, emits *[]emission) {
	if s.disabled.Load() || s.removed.Load() {
		return
	}
	p := s.parent
	switch {
	case p == nil:
		*emits = append(*emits, emission{id: s.id, sig: sig})
	case s.partIdx < 0:
		d.armFromBaseline(p)
	default:
		firs := p.tmpl.Offer(cep.Occurrence{Part: s.partIdx, Time: sig.Time, Txn: sig.Txn, Bindings: sig.Bindings})
		d.obsm.ObserveN(obs.HCEPPartials, uint64(p.tmpl.Partials()))
		for _, f := range firs {
			d.route(p, Signal{Spec: p.spec, Time: f.Time, Txn: f.Txn, Bindings: f.Bindings}, emits)
		}
	}
}

// armFromBaseline schedules a relative or periodic temporal's timer
// now that its baseline event occurred.
func (d *Detectors) armFromBaseline(p *sub) {
	t := p.spec.(Temporal)
	d.mu.Lock()
	defer d.mu.Unlock()
	if p.disabled.Load() || p.removed.Load() {
		return
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	switch t.Kind {
	case Relative:
		p.timer = d.clk.AfterFunc(t.Offset, func() { d.temporalFire(p, false) })
	case Periodic:
		p.timer = d.clk.AfterFunc(t.Period, func() { d.temporalFire(p, true) })
	}
}

// SignalDatabase reports a primitive database operation to every
// matching subscription. It is called by the Object Manager (DDL/DML)
// and the Transaction Manager (commit/abort), and runs rule
// processing synchronously before returning.
func (d *Detectors) SignalDatabase(op Op, class string, tx lock.TxnID, bindings map[string]datum.Value) error {
	// A signal matches subscriptions on (op, class), (op, any class),
	// (any op, class), and (any op, any class); drop the duplicate
	// keys that arise when op or class is already the wildcard.
	keys := [4]dbKey{
		{op: op, class: class},
		{op: op, class: ""},
		{op: OpAny, class: class},
		{op: OpAny, class: ""},
	}
	n := 4
	if op == OpAny {
		keys[1] = keys[3] // rows 2,3 duplicate rows 0,1
		n = 2
	}
	if class == "" {
		keys[1] = keys[2] // columns collapse pairwise
		n /= 2
	}
	d.nDBSignals.Add(1)
	snap := d.idx.Load()
	matched := 0
	for _, k := range keys[:n] {
		matched += len(snap.db[k])
	}
	if matched == 0 {
		// Fast path: every DML operation signals here, but most ops
		// have no subscribed rule. One atomic load and (usually) four
		// empty map probes — no lock, no shared-cache-line write
		// beyond the signal counter.
		return nil
	}
	now := d.clk.Now()
	var emits []emission
	for _, k := range keys[:n] {
		for _, s := range snap.db[k] {
			d.route(s, Signal{Spec: s.spec, Time: now, Txn: tx, Bindings: bindings}, &emits)
		}
	}
	return d.send(emits)
}

// SignalExternal reports an application-defined event occurrence
// (§4.1 "signal"). tx is the transaction the application associates
// with the occurrence (0 for none). Rule processing for immediate
// couplings runs synchronously before SignalExternal returns.
func (d *Detectors) SignalExternal(name string, tx lock.TxnID, args map[string]datum.Value) (int, error) {
	d.nExtSignals.Add(1)
	list := d.idx.Load().ext[name]
	if len(list) == 0 {
		return 0, nil
	}
	now := d.clk.Now()
	var emits []emission
	for _, s := range list {
		d.route(s, Signal{Spec: s.spec, Time: now, Txn: tx, Bindings: args}, &emits)
	}
	return len(emits), d.send(emits)
}

// Delete removes a subscription and all its internal children,
// stopping any timers (§5.3: detection ceases when the last rule
// using the event is deleted).
func (d *Detectors) Delete(id SubID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.subs[id]; s != nil {
		d.removeLocked(s)
		d.publishLocked()
	}
}

// Close removes every subscription, so no temporal timer or cep GC
// sweep fires or re-arms afterwards and no signal is delivered.
func (d *Detectors) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.subs {
		if s.parent == nil {
			d.removeLocked(s)
		}
	}
	d.publishLocked()
}

func (d *Detectors) removeLocked(s *sub) {
	s.removed.Store(true)
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if s.tmpl != nil {
		for i, c := range d.cepSubs {
			if c == s {
				d.cepSubs = append(d.cepSubs[:i:i], d.cepSubs[i+1:]...)
				break
			}
		}
	}
	delete(d.subs, s.id)
	switch v := s.spec.(type) {
	case Database:
		k := dbKey{op: v.Op, class: v.Class}
		d.dbIndex[k] = removeSub(d.dbIndex[k], s)
		if len(d.dbIndex[k]) == 0 {
			delete(d.dbIndex, k)
		}
	case External:
		d.extIdx[v.Name] = removeSub(d.extIdx[v.Name], s)
		if len(d.extIdx[v.Name]) == 0 {
			delete(d.extIdx, v.Name)
		}
	}
	for _, c := range s.children {
		d.removeLocked(c)
	}
}

func removeSub(list []*sub, s *sub) []*sub {
	for i, x := range list {
		if x == s {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

// Disable suspends detection/signalling for the subscription (§5.3
// Disable Event). Timers of temporal subscriptions are stopped.
func (d *Detectors) Disable(id SubID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.subs[id]; s != nil {
		d.setDisabledLocked(s, true)
	}
}

// Enable resumes detection (§5.3 Enable Event). Relative and periodic
// temporal subscriptions are re-armed from the enable instant;
// absolute ones fire only if still in the future.
func (d *Detectors) Enable(id SubID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.subs[id]; s != nil {
		d.setDisabledLocked(s, false)
	}
}

func (d *Detectors) setDisabledLocked(s *sub, disabled bool) {
	// A disabled part's occurrences stop at route, before its parent's
	// template: partial-match state survives a disable/enable cycle.
	if s.disabled.Swap(disabled) == disabled {
		return
	}
	if t, ok := s.spec.(Temporal); ok {
		if disabled {
			if s.timer != nil {
				s.timer.Stop()
				s.timer = nil
			}
		} else if t.Baseline == nil {
			switch t.Kind {
			case Absolute:
				if delay := t.At.Sub(d.clk.Now()); delay >= 0 {
					s.timer = d.clk.AfterFunc(delay, func() { d.temporalFire(s, false) })
				}
			case Relative:
				s.timer = d.clk.AfterFunc(t.Offset, func() { d.temporalFire(s, false) })
			case Periodic:
				s.timer = d.clk.AfterFunc(t.Period, func() { d.temporalFire(s, true) })
			}
		}
	}
	for _, c := range s.children {
		d.setDisabledLocked(c, disabled)
	}
}

// Subscriptions reports the number of live subscriptions including
// internal composite children.
func (d *Detectors) Subscriptions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.subs)
}

// Stats returns a snapshot of the counters.
func (d *Detectors) Stats() Stats {
	st := Stats{
		DatabaseSignals: d.nDBSignals.Load(),
		ExternalSignals: d.nExtSignals.Load(),
		TemporalFirings: d.nTemporal.Load(),
		Emissions:       d.nEmissions.Load(),
	}
	d.mu.Lock()
	cepSubs := append([]*sub(nil), d.cepSubs...)
	d.mu.Unlock()
	for _, s := range cepSubs {
		ts := s.tmpl.Stats()
		st.CEPTemplates++
		st.CEPInstances += ts.Instances
		st.CEPPartials += ts.Partials
		st.CEPFirings += ts.Fired
		st.CEPExpired += ts.Expired
	}
	return st
}

// CEPShardInstances reports live NFA instances per shard, summed
// elementwise across all cep templates — the evidence that detection
// state (and therefore detection work) spreads over the shards.
func (d *Detectors) CEPShardInstances() []int {
	d.mu.Lock()
	cepSubs := append([]*sub(nil), d.cepSubs...)
	d.mu.Unlock()
	var out []int
	for _, s := range cepSubs {
		per := s.tmpl.ShardInstances()
		if out == nil {
			out = make([]int, len(per))
		}
		for i, n := range per {
			if i < len(out) {
				out[i] += n
			}
		}
	}
	return out
}

// Now exposes the detector clock (used by layers that timestamp
// signals consistently with temporal events).
func (d *Detectors) Now() time.Time { return d.clk.Now() }
