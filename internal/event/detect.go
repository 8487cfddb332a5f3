package event

import (
	"fmt"
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
	disabled bool
	removed  bool
	parent   *sub
	partIdx  int
	children []*sub

	// temporal state
	timer     clock.Timer
	fireCount int64

	// composite state
	seqNext     int
	seqBindings map[string]datum.Value
	conjSeen    []map[string]datum.Value

	// CEP operator state (Within/During/Window/Aggregate specs): the
	// sharded per-correlation-key automata. Immutable once defined;
	// its own internal synchronization (per-shard locks + atomic
	// enable/remove flags) lets top-level constituents advance it
	// without taking Detectors.mu.
	tmpl *cep.Template
}

// indexSnapshot is an immutable copy of the subscription index,
// republished whenever the index changes (Define/Delete — rare) and
// read lock-free by every signal (hot). Slices and maps inside a
// published snapshot are never mutated; the *sub pointers are shared
// with the live index, and their mutable state (automata progress,
// disabled/removed flags) is only touched under Detectors.mu.
type indexSnapshot struct {
	db  map[dbKey][]*sub
	ext map[string][]*sub
}

// Detectors is the set of event detectors: database, temporal,
// external, and the composite-event automata layered over them. It is
// safe for concurrent use.
//
// Signalling is read-mostly: the subscription index is a copy-on-write
// snapshot under an atomic pointer, so matching a DML signal against
// the (usually empty) subscription set takes no lock at all. Only
// delivery — which advances per-subscription automata — serializes
// under mu.
type Detectors struct {
	mu      sync.Mutex // guards subs, the live index maps, and all per-sub state
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
// and Delete calls and in emissions.
func (d *Detectors) Define(spec Spec) (SubID, error) {
	if spec == nil {
		return 0, fmt.Errorf("event: nil spec")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, err := d.defineLocked(spec, nil, 0)
	if err != nil {
		return 0, err
	}
	d.publishLocked()
	return s.id, nil
}

func (d *Detectors) defineLocked(spec Spec, parent *sub, partIdx int) (*sub, error) {
	s := &sub{id: d.nextSub, spec: spec, parent: parent, partIdx: partIdx}
	d.nextSub++
	d.subs[s.id] = s
	switch v := spec.(type) {
	case Database:
		k := dbKey{op: v.Op, class: v.Class}
		d.dbIndex[k] = append(d.dbIndex[k], s)
	case External:
		if v.Name == "" {
			return nil, fmt.Errorf("event: external event needs a name")
		}
		d.extIdx[v.Name] = append(d.extIdx[v.Name], s)
	case Temporal:
		if err := d.defineTemporalLocked(s, v); err != nil {
			return nil, err
		}
	case Composite:
		if len(v.Parts) < 2 {
			return nil, fmt.Errorf("event: composite %s needs at least two parts", v.Op)
		}
		switch v.Op {
		case Disjunction, Sequence, Conjunction:
		default:
			return nil, fmt.Errorf("event: unknown composite operator %q", v.Op)
		}
		s.conjSeen = make([]map[string]datum.Value, len(v.Parts))
		for i, part := range v.Parts {
			child, err := d.defineLocked(part, s, i)
			if err != nil {
				return nil, err
			}
			s.children = append(s.children, child)
		}
	case Within:
		if len(v.Parts) < 2 {
			return nil, fmt.Errorf("event: within needs at least two parts")
		}
		if v.Window <= 0 {
			return nil, fmt.Errorf("event: within needs a positive window")
		}
		cfg := cep.Config{Kind: cep.KWithin, Parts: len(v.Parts), Window: v.Window,
			CorrelAttr: v.Correl.Attr, CorrelVar: v.Correl.Var}
		if err := d.defineCEPLocked(s, cfg, v.Parts...); err != nil {
			return nil, err
		}
	case During:
		if v.Event == nil || v.Start == nil || v.End == nil {
			return nil, fmt.Errorf("event: during needs event, start, and end parts")
		}
		cfg := cep.Config{Kind: cep.KDuring, Parts: 3,
			CorrelAttr: v.Correl.Attr, CorrelVar: v.Correl.Var}
		if err := d.defineCEPLocked(s, cfg, v.Event, v.Start, v.End); err != nil {
			return nil, err
		}
	case Window:
		if v.Part == nil {
			return nil, fmt.Errorf("event: %s window needs a part", v.Mode)
		}
		if v.Count < 1 {
			return nil, fmt.Errorf("event: %s window needs a positive count", v.Mode)
		}
		kind := cep.KSliding
		switch v.Mode {
		case Sliding:
		case Tumbling:
			kind = cep.KTumbling
		default:
			return nil, fmt.Errorf("event: unknown window mode %q", v.Mode)
		}
		cfg := cep.Config{Kind: kind, Parts: 1, Count: v.Count,
			CorrelAttr: v.Correl.Attr, CorrelVar: v.Correl.Var}
		if err := d.defineCEPLocked(s, cfg, v.Part); err != nil {
			return nil, err
		}
	case Aggregate:
		if v.Part == nil {
			return nil, fmt.Errorf("event: count aggregate needs a part")
		}
		if v.Min < 1 {
			return nil, fmt.Errorf("event: count aggregate needs a positive minimum")
		}
		if v.Window <= 0 {
			return nil, fmt.Errorf("event: count aggregate needs a positive window")
		}
		cfg := cep.Config{Kind: cep.KAggregate, Parts: 1, Count: v.Min, Window: v.Window,
			CorrelAttr: v.Correl.Attr, CorrelVar: v.Correl.Var}
		if err := d.defineCEPLocked(s, cfg, v.Part); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("event: unsupported spec type %T", spec)
	}
	return s, nil
}

// defineCEPLocked builds the cep template for s and defines its
// constituent parts as children with role indices matching the
// template's part numbering. Caller holds d.mu.
func (d *Detectors) defineCEPLocked(s *sub, cfg cep.Config, parts ...Spec) error {
	s.tmpl = cep.New(cfg, cep.DefaultShards)
	for i, part := range parts {
		child, err := d.defineLocked(part, s, i)
		if err != nil {
			return err
		}
		s.children = append(s.children, child)
	}
	d.cepSubs = append(d.cepSubs, s)
	d.scheduleCEPGCLocked(s)
	return nil
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
	d.mu.Lock()
	if s.removed {
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	s.tmpl.GC(d.clk.Now())
	st := s.tmpl.Stats()
	d.obsm.ObserveN(obs.HCEPInstances, uint64(st.Instances))
	d.mu.Lock()
	if !s.removed {
		s.timer = d.clk.AfterFunc(w, func() { d.cepGC(s, w) })
	}
	d.mu.Unlock()
}

func (d *Detectors) defineTemporalLocked(s *sub, v Temporal) error {
	switch v.Kind {
	case Absolute:
		delay := v.At.Sub(d.clk.Now())
		if delay < 0 {
			return nil // already past: never fires
		}
		s.timer = d.clk.AfterFunc(delay, func() { d.temporalFire(s, false) })
	case Relative:
		if v.Offset < 0 {
			return fmt.Errorf("event: negative relative offset")
		}
		if v.Baseline == nil {
			s.timer = d.clk.AfterFunc(v.Offset, func() { d.temporalFire(s, false) })
		} else {
			base, err := d.defineLocked(v.Baseline, s, -1)
			if err != nil {
				return err
			}
			s.children = append(s.children, base)
		}
	case Periodic:
		if v.Period <= 0 {
			return fmt.Errorf("event: periodic event needs a positive period")
		}
		if v.Baseline == nil {
			s.timer = d.clk.AfterFunc(v.Period, func() { d.temporalFire(s, true) })
		} else {
			base, err := d.defineLocked(v.Baseline, s, -1)
			if err != nil {
				return err
			}
			s.children = append(s.children, base)
		}
	default:
		return fmt.Errorf("event: unknown temporal kind %q", v.Kind)
	}
	return nil
}

// temporalFire handles a timer expiry for subscription s.
func (d *Detectors) temporalFire(s *sub, periodic bool) {
	var emits []emission
	d.mu.Lock()
	if s.removed || s.disabled {
		d.mu.Unlock()
		return
	}
	d.nTemporal.Add(1)
	s.fireCount++
	bindings := map[string]datum.Value{
		"time":  datum.Time(d.clk.Now()),
		"count": datum.Int(s.fireCount),
	}
	sig := Signal{Spec: s.spec, Time: d.clk.Now(), Bindings: bindings}
	if periodic {
		period := s.spec.(Temporal).Period
		s.timer = d.clk.AfterFunc(period, func() { d.temporalFire(s, true) })
	}
	d.deliverLocked(s, sig, &emits)
	d.mu.Unlock()
	d.nEmissions.Add(uint64(len(emits)))
	if err := d.send(emits); err != nil && d.asyncErr != nil {
		d.asyncErr(err)
	}
}

type emission struct {
	id  SubID
	sig Signal
}

// send dispatches queued emissions outside d.mu (rule processing may
// re-enter the detectors, e.g. an action that signals another event)
// and returns the first error.
func (d *Detectors) send(emits []emission) error {
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

// deliverLocked routes a signal on subscription s upward: top-level
// subscriptions are queued for emission to the Rule Manager;
// composite parts feed their parent's automaton; temporal baselines
// (re)arm their parent's timer. Caller holds d.mu.
func (d *Detectors) deliverLocked(s *sub, sig Signal, emits *[]emission) {
	if s.disabled || s.removed {
		return
	}
	if s.parent == nil {
		*emits = append(*emits, emission{id: s.id, sig: sig})
		return
	}
	p := s.parent
	if s.partIdx == -1 {
		// Baseline occurrence for a relative or periodic temporal.
		d.armFromBaseline(p)
		return
	}
	if p.tmpl != nil {
		d.offerLocked(p, s.partIdx, sig, emits)
		return
	}
	comp, ok := p.spec.(Composite)
	if !ok {
		return
	}
	switch comp.Op {
	case Disjunction:
		out := Signal{Spec: p.spec, Time: sig.Time, Txn: sig.Txn, Bindings: sig.Bindings}
		d.deliverLocked(p, out, emits)
	case Sequence:
		switch {
		case s.partIdx == p.seqNext:
			p.seqBindings = MergeBindings(p.seqBindings, sig.Bindings)
			p.seqNext++
			if p.seqNext == len(comp.Parts) {
				out := Signal{Spec: p.spec, Time: sig.Time, Txn: sig.Txn, Bindings: p.seqBindings}
				p.seqNext = 0
				p.seqBindings = nil
				d.deliverLocked(p, out, emits)
			}
		case s.partIdx == 0:
			// Restart the sequence on a fresh first occurrence.
			p.seqNext = 1
			p.seqBindings = datum.CloneMap(sig.Bindings)
		default:
			// Out-of-order constituent: ignored.
		}
	case Conjunction:
		seen := datum.CloneMap(sig.Bindings)
		if seen == nil {
			// A part with no bindings still counts as seen.
			seen = map[string]datum.Value{}
		}
		p.conjSeen[s.partIdx] = seen
		all := true
		for _, b := range p.conjSeen {
			if b == nil {
				all = false
				break
			}
		}
		if all {
			merged := map[string]datum.Value{}
			for _, b := range p.conjSeen {
				merged = MergeBindings(merged, b)
			}
			out := Signal{Spec: p.spec, Time: sig.Time, Txn: sig.Txn, Bindings: merged}
			p.conjSeen = make([]map[string]datum.Value, len(comp.Parts))
			d.deliverLocked(p, out, emits)
		}
	}
}

// offerLocked advances a cep template with a constituent occurrence
// and routes completed composite firings upward (the template may
// itself be a part of an enclosing composite). Caller holds d.mu.
// Lock order: d.mu may be held while Offer takes a shard lock, never
// the reverse.
func (d *Detectors) offerLocked(p *sub, part int, sig Signal, emits *[]emission) {
	firs := p.tmpl.Offer(cep.Occurrence{Part: part, Time: sig.Time, Txn: sig.Txn, Bindings: sig.Bindings})
	d.obsm.ObserveN(obs.HCEPPartials, uint64(p.tmpl.Partials()))
	for _, f := range firs {
		out := Signal{Spec: p.spec, Time: f.Time, Txn: f.Txn, Bindings: f.Bindings}
		d.deliverLocked(p, out, emits)
	}
}

// offerFast is the lock-free delivery path for constituents of a
// TOP-LEVEL cep template: the template's per-shard locks are the only
// synchronization, so signals for different correlation keys advance
// their automata in parallel. Safe without d.mu because the sub tree
// shape (parent/partIdx/spec/id/tmpl) is immutable after Define, and
// enable/remove state is read through the template's atomic flags.
func (d *Detectors) offerFast(p *sub, part int, now time.Time, tx lock.TxnID,
	bindings map[string]datum.Value, emits *[]emission) {

	firs := p.tmpl.Offer(cep.Occurrence{Part: part, Time: now, Txn: tx, Bindings: bindings})
	d.obsm.ObserveN(obs.HCEPPartials, uint64(p.tmpl.Partials()))
	for _, f := range firs {
		*emits = append(*emits, emission{id: p.id,
			sig: Signal{Spec: p.spec, Time: f.Time, Txn: f.Txn, Bindings: f.Bindings}})
	}
}

// cepFastEligible reports whether a matched subscription can take the
// lock-free cep delivery path: it is a direct constituent of a
// top-level cep template.
func cepFastEligible(s *sub) bool {
	return s.parent != nil && s.parent.tmpl != nil && s.parent.parent == nil
}

// armFromBaseline schedules parent's timer now that its baseline
// event occurred. Caller holds d.mu.
func (d *Detectors) armFromBaseline(p *sub) {
	t, ok := p.spec.(Temporal)
	if !ok || p.disabled || p.removed {
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
	// Constituents of top-level cep templates advance their sharded
	// automata without d.mu — signals for distinct correlation keys
	// run fully in parallel.
	slow := 0
	for _, k := range keys[:n] {
		for _, s := range snap.db[k] {
			if cepFastEligible(s) {
				d.offerFast(s.parent, s.partIdx, now, tx, bindings, &emits)
			} else {
				slow++
			}
		}
	}
	// Delivery to everything else advances composite automata, so it
	// serializes under mu. The snapshot's sub lists may be stale
	// relative to a concurrent Define/Delete: a just-added
	// subscription is missed (the signal linearizes before the
	// define) and a just-deleted one is skipped by deliverLocked's
	// removed check.
	if slow > 0 {
		d.mu.Lock()
		for _, k := range keys[:n] {
			for _, s := range snap.db[k] {
				if cepFastEligible(s) {
					continue
				}
				sig := Signal{Spec: s.spec, Time: now, Txn: tx, Bindings: bindings}
				d.deliverLocked(s, sig, &emits)
			}
		}
		d.mu.Unlock()
	}
	d.nEmissions.Add(uint64(len(emits)))
	return d.send(emits)
}

// SignalExternal reports an application-defined event occurrence
// (§4.1 "signal"). tx is the transaction the application associates
// with the occurrence (0 for none). Rule processing for immediate
// couplings runs synchronously before SignalExternal returns.
func (d *Detectors) SignalExternal(name string, tx lock.TxnID, args map[string]datum.Value) (int, error) {
	d.nExtSignals.Add(1)
	snap := d.idx.Load()
	list := snap.ext[name]
	if len(list) == 0 {
		return 0, nil
	}
	now := d.clk.Now()
	var emits []emission
	slow := 0
	for _, s := range list {
		if cepFastEligible(s) {
			d.offerFast(s.parent, s.partIdx, now, tx, args, &emits)
		} else {
			slow++
		}
	}
	if slow > 0 {
		d.mu.Lock()
		for _, s := range list {
			if cepFastEligible(s) {
				continue
			}
			sig := Signal{Spec: s.spec, Time: now, Txn: tx, Bindings: args}
			d.deliverLocked(s, sig, &emits)
		}
		d.mu.Unlock()
	}
	d.nEmissions.Add(uint64(len(emits)))
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

func (d *Detectors) removeLocked(s *sub) {
	s.removed = true
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if s.tmpl != nil {
		s.tmpl.SetRemoved()
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
	if s.disabled == disabled {
		return
	}
	s.disabled = disabled
	if s.tmpl != nil {
		// The atomic flag is what the lock-free delivery path reads;
		// partial-match state survives a disable/enable cycle, like
		// the or/seq/and automata.
		s.tmpl.SetEnabled(!disabled)
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
