// Package cep is the composite-event runtime: it runs every composite
// event operator — the paper's disjunction and sequence, our
// conjunction, and the windowed, interval, and aggregate operators
// that extend them (the operator space mapped by the Reaction RuleML
// classification — interval relations, count windows, aggregation over
// sliding time windows). Each kind names its consumption policy.
//
// A Template is the compiled form of one operator occurrence in an
// event specification. At runtime the template maintains NFA
// *instances*, one per correlation key (e.g. one per ticker for
// `count(PriceDrop where ticker=$t) >= 10 within 1m`), hash-sharded
// so that occurrences for different keys advance their automata in
// parallel under independent shard locks — detection parallelizes the
// same way the store's heap partitions do. A disjunction keeps no
// state and takes no lock at all.
//
// All temporal reasoning uses the logical occurrence times stamped by
// the detector's clock (internal/clock), never the wall clock, so
// semantics are deterministic under the virtual clock. Partial
// matches expire at start+window and are reclaimed both
// opportunistically (whenever their instance is touched) and by the
// detector's periodic GC sweep, so memory stays bounded under
// sustained non-matching streams.
package cep

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/lock"
)

// Kind selects the operator a Template implements.
type Kind int

// The composite-event operator kinds.
const (
	// KWithin: the parts must occur in order, all within Window of the
	// first part's occurrence (sequence-within-duration). Window 0 is
	// the plain sequence: no expiry. At most MaxPartials matches are
	// open per instance; a part-0 occurrence beyond that drops the
	// oldest, so MaxPartials 1 means a fresh first part restarts.
	KWithin Kind = iota
	// KDuring: part 0 (the event) must occur inside the interval
	// delimited by part 1 (start) and part 2 (end); fires once per
	// interval containing at least one event, when the end occurs.
	KDuring
	// KSliding: a sliding count window over part 0 — fires on every
	// occurrence once the last Count occurrences are present.
	KSliding
	// KTumbling: a tumbling count window over part 0 — fires on every
	// Count-th occurrence, then resets.
	KTumbling
	// KAggregate: fires when at least Count occurrences of part 0 fall
	// within the trailing Window; the occurrence set is consumed on
	// firing, so one qualifying burst fires exactly once.
	KAggregate
	// KAny (disjunction): every part's occurrence is a firing, its
	// bindings passed through uncopied.
	KAny
	// KAll (conjunction): keeps the latest bindings per part and fires
	// once every part has been seen, in any order, with them merged in
	// part order (later part wins); then resets.
	KAll
)

// DefaultShards is the instance-map shard count when a Template is
// built with shards <= 0.
const DefaultShards = 16

// DefaultMaxPartials caps the open partial matches per instance for
// KWithin; the oldest partial is dropped (counted as expired) when a
// new one would exceed the cap.
const DefaultMaxPartials = 64

// Config is the compiled operator description.
type Config struct {
	Kind   Kind
	Parts  int           // constituent roles (KWithin, KAny, KAll: len(parts); KDuring: 3; others: 1)
	Window time.Duration // KWithin (0 = no expiry), KAggregate
	Count  int           // KSliding/KTumbling window size; KAggregate minimum count
	// Correlation: occurrences are partitioned by the value bound to
	// CorrelAttr (occurrences without it are ignored), and firings
	// bind that value to CorrelVar. Empty CorrelAttr means one global
	// instance.
	CorrelAttr  string
	CorrelVar   string
	MaxPartials int // 0 = DefaultMaxPartials
}

// Occurrence is one constituent-event occurrence routed to a
// template. Part identifies the constituent's role.
type Occurrence struct {
	Part     int
	Time     time.Time
	Txn      lock.TxnID
	Bindings map[string]datum.Value
}

// Firing is one completed composite occurrence. Bindings merge the
// constituents' bindings (later constituents win collisions) plus the
// operator's own: the correlation variable, and cep_count /
// cep_window_start where meaningful.
type Firing struct {
	Time     time.Time
	Txn      lock.TxnID
	Bindings map[string]datum.Value
}

// Stats is a point-in-time snapshot of one template's state.
type Stats struct {
	Instances int    // live correlation-key instances
	Partials  int    // open partial matches across all instances
	Fired     uint64 // composite firings produced
	Expired   uint64 // partial matches dropped by expiry, cap, or window slide
}

// Template is one compiled operator with its sharded instance state.
// Offer and GC are safe for concurrent use; distinct correlation keys
// contend only on their shard.
type Template struct {
	cfg    Config
	shards []shard
	seed   maphash.Seed

	fired     atomic.Uint64
	expired   atomic.Uint64
	partials  atomic.Int64
	instances atomic.Int64
}

type shard struct {
	mu    sync.Mutex
	inst  map[string]*instance
	spare *instance // the last emptied instance, reused by the next key to open
	_     [40]byte  // keep neighboring shard locks off one cache line
}

// partial is one open KWithin partial match: the sequence has
// advanced through parts [0, next) and expires at start+Window.
type partial struct {
	next  int
	start time.Time
	bind  map[string]datum.Value
}

// instance is the automaton state for one correlation key. The fields
// used depend on the template kind; everything is O(parts + window
// count) per instance.
type instance struct {
	keyVal datum.Value

	partials []partial // KWithin

	open  bool                   // KDuring: inside a start..end interval
	count int                    // KDuring events seen; KTumbling counter; KAll parts seen
	bind  map[string]datum.Value // KDuring/KTumbling accumulated bindings
	first time.Time              // KTumbling bucket start

	times []time.Time // KSliding last-Count ring; KAggregate trailing-window deque

	seen []map[string]datum.Value // KAll: latest bindings per part, nil until seen
}

// noBindings stands for a KAll part seen with no bindings; it is only
// ever read.
var noBindings = map[string]datum.Value{}

// New compiles cfg into a template with the given shard count
// (rounded up to a power of two; <=0 means DefaultShards).
func New(cfg Config, shards int) *Template {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if cfg.MaxPartials <= 0 {
		cfg.MaxPartials = DefaultMaxPartials
	}
	t := &Template{cfg: cfg, shards: make([]shard, n), seed: maphash.MakeSeed()}
	for i := range t.shards {
		t.shards[i].inst = map[string]*instance{}
	}
	return t
}

// Window reports the template's expiry window (0 for kinds without
// one); the detector uses it to pace GC sweeps.
func (t *Template) Window() time.Duration { return t.cfg.Window }

// Partials reports the open partial matches across all instances
// (lock-free).
func (t *Template) Partials() int { return int(t.partials.Load()) }

// Offer routes one constituent occurrence into the template and
// returns any composite firings it completes. Only the shard owning
// the occurrence's correlation key is locked; KAny locks nothing.
func (t *Template) Offer(occ Occurrence) []Firing {
	if t.cfg.Kind == KAny {
		t.fired.Add(1)
		return []Firing{{Time: occ.Time, Txn: occ.Txn, Bindings: occ.Bindings}}
	}
	key, sh := "", &t.shards[0]
	var keyVal datum.Value
	if t.cfg.CorrelAttr != "" {
		v, ok := occ.Bindings[t.cfg.CorrelAttr]
		if !ok || v.IsNull() {
			return nil // uncorrelatable occurrence: ignored
		}
		keyVal, key = v, v.Key()
		sh = &t.shards[t.shardOf(key)]
	}
	sh.mu.Lock()
	in := sh.inst[key]
	if in == nil {
		// KDuring events/ends before any start, and non-part-0 KWithin
		// occurrences, cannot open state: don't allocate an instance.
		if !t.opens(occ.Part) {
			sh.mu.Unlock()
			return nil
		}
		if in, sh.spare = sh.spare, nil; in == nil {
			in = &instance{}
		}
		in.keyVal = keyVal
		sh.inst[key] = in
		t.instances.Add(1)
	}
	firs := t.offer(in, occ)
	if t.emptyInstance(in) {
		delete(sh.inst, key)
		sh.spare = in
		t.instances.Add(-1)
	}
	sh.mu.Unlock()
	t.fired.Add(uint64(len(firs)))
	return firs
}

// opens reports whether an occurrence of the given part can open
// fresh instance state.
func (t *Template) opens(part int) bool {
	switch t.cfg.Kind {
	case KWithin:
		return part == 0
	case KDuring:
		return part == 1 // only a start occurrence opens an interval
	default:
		return true
	}
}

// offer advances one instance. Caller holds the shard lock.
func (t *Template) offer(in *instance, occ Occurrence) []Firing {
	switch t.cfg.Kind {
	case KWithin:
		return t.offerWithin(in, occ)
	case KDuring:
		return t.offerDuring(in, occ)
	case KSliding:
		return t.offerSliding(in, occ)
	case KTumbling:
		return t.offerTumbling(in, occ)
	case KAggregate:
		return t.offerAggregate(in, occ)
	case KAll:
		return t.offerAll(in, occ)
	}
	return nil
}

func (t *Template) offerWithin(in *instance, occ Occurrence) []Firing {
	// Opportunistic expiry keeps touched instances bounded between GC
	// sweeps.
	t.expireWithin(in, occ.Time)
	var firs []Firing
	if occ.Part == 0 {
		if len(in.partials) >= t.cfg.MaxPartials {
			in.partials = in.partials[1:]
			t.partials.Add(-1)
			t.expired.Add(1)
		}
		in.partials = append(in.partials, partial{
			next: 1, start: occ.Time, bind: datum.CloneMap(occ.Bindings),
		})
		t.partials.Add(1)
		// A single-role check: with Parts == 1 the sequence completes
		// immediately (the parser forbids this, but stay safe).
	}
	keep := in.partials[:0]
	for _, pm := range in.partials {
		if occ.Part != 0 && pm.next == occ.Part {
			pm.bind = mergeBindings(pm.bind, occ.Bindings)
			pm.next++
		}
		if pm.next == t.cfg.Parts {
			b := t.finish(in, pm.bind)
			if t.cfg.Window > 0 {
				b["cep_window_start"] = datum.Time(pm.start)
			}
			firs = append(firs, Firing{Time: occ.Time, Txn: occ.Txn, Bindings: b})
			t.partials.Add(-1)
			continue
		}
		keep = append(keep, pm)
	}
	// Zero the tail so dropped partials' binding maps are collectable.
	for i := len(keep); i < len(in.partials); i++ {
		in.partials[i] = partial{}
	}
	in.partials = keep
	return firs
}

// expireWithin drops partials whose window has passed. Caller holds
// the shard lock.
func (t *Template) expireWithin(in *instance, now time.Time) {
	if t.cfg.Window <= 0 {
		return
	}
	keep := in.partials[:0]
	for _, pm := range in.partials {
		if now.Sub(pm.start) > t.cfg.Window {
			t.partials.Add(-1)
			t.expired.Add(1)
			continue
		}
		keep = append(keep, pm)
	}
	for i := len(keep); i < len(in.partials); i++ {
		in.partials[i] = partial{}
	}
	in.partials = keep
}

func (t *Template) offerDuring(in *instance, occ Occurrence) []Firing {
	switch occ.Part {
	case 1: // start: open (or restart) the interval
		if in.open {
			t.partials.Add(-1)
			t.expired.Add(1)
		}
		in.open = true
		in.count = 0
		in.bind = datum.CloneMap(occ.Bindings)
		t.partials.Add(1)
	case 0: // the contained event
		if in.open {
			in.count++
			in.bind = mergeBindings(in.bind, occ.Bindings)
		}
	case 2: // end: fire if the interval contained an event
		if !in.open {
			return nil
		}
		t.partials.Add(-1)
		count := in.count
		b := t.finish(in, mergeBindings(in.bind, occ.Bindings))
		in.open = false
		in.count = 0
		in.bind = nil
		if count == 0 {
			return nil
		}
		b["cep_count"] = datum.Int(int64(count))
		return []Firing{{Time: occ.Time, Txn: occ.Txn, Bindings: b}}
	}
	return nil
}

func (t *Template) offerSliding(in *instance, occ Occurrence) []Firing {
	in.times = append(in.times, occ.Time)
	if len(in.times) > t.cfg.Count {
		copy(in.times, in.times[1:])
		in.times = in.times[:t.cfg.Count]
	} else {
		t.partials.Add(1)
	}
	if len(in.times) < t.cfg.Count {
		return nil
	}
	b := t.finish(in, datum.CloneMap(occ.Bindings))
	b["cep_count"] = datum.Int(int64(t.cfg.Count))
	b["cep_window_start"] = datum.Time(in.times[0])
	return []Firing{{Time: occ.Time, Txn: occ.Txn, Bindings: b}}
}

func (t *Template) offerTumbling(in *instance, occ Occurrence) []Firing {
	if in.count == 0 {
		in.first = occ.Time
		t.partials.Add(1)
	}
	in.count++
	in.bind = mergeBindings(in.bind, occ.Bindings)
	if in.count < t.cfg.Count {
		return nil
	}
	t.partials.Add(-1)
	b := t.finish(in, in.bind)
	b["cep_count"] = datum.Int(int64(t.cfg.Count))
	b["cep_window_start"] = datum.Time(in.first)
	in.count = 0
	in.bind = nil
	return []Firing{{Time: occ.Time, Txn: occ.Txn, Bindings: b}}
}

func (t *Template) offerAggregate(in *instance, occ Occurrence) []Firing {
	t.expireAggregate(in, occ.Time)
	in.times = append(in.times, occ.Time)
	t.partials.Add(1)
	if len(in.times) < t.cfg.Count {
		return nil
	}
	// Consume the qualifying set: one burst fires exactly once.
	b := t.finish(in, datum.CloneMap(occ.Bindings))
	b["cep_count"] = datum.Int(int64(len(in.times)))
	b["cep_window_start"] = datum.Time(in.times[0])
	t.partials.Add(-int64(len(in.times)))
	in.times = in.times[:0]
	return []Firing{{Time: occ.Time, Txn: occ.Txn, Bindings: b}}
}

func (t *Template) offerAll(in *instance, occ Occurrence) []Firing {
	if in.count == 0 {
		if in.seen == nil {
			in.seen = make([]map[string]datum.Value, t.cfg.Parts)
		}
		t.partials.Add(1)
	}
	if in.seen[occ.Part] == nil {
		in.count++
	}
	b := noBindings // a part with no bindings still counts as seen
	if len(occ.Bindings) > 0 {
		b = datum.CloneMap(occ.Bindings)
	}
	in.seen[occ.Part] = b
	if in.count < t.cfg.Parts {
		return nil
	}
	merged := map[string]datum.Value{}
	for _, b := range in.seen {
		for k, v := range b {
			merged[k] = v
		}
	}
	t.partials.Add(-1)
	clear(in.seen)
	in.count = 0
	return []Firing{{Time: occ.Time, Txn: occ.Txn, Bindings: t.finish(in, merged)}}
}

// expireAggregate slides occurrences older than the trailing window
// out of the deque. Caller holds the shard lock.
func (t *Template) expireAggregate(in *instance, now time.Time) {
	drop := 0
	for drop < len(in.times) && now.Sub(in.times[drop]) > t.cfg.Window {
		drop++
	}
	if drop > 0 {
		in.times = in.times[:copy(in.times, in.times[drop:])]
		t.partials.Add(-int64(drop))
		t.expired.Add(uint64(drop))
	}
}

// finish decorates a firing's bindings with the correlation variable.
func (t *Template) finish(in *instance, b map[string]datum.Value) map[string]datum.Value {
	if b == nil {
		b = map[string]datum.Value{}
	}
	if t.cfg.CorrelVar != "" {
		b[t.cfg.CorrelVar] = in.keyVal
	}
	return b
}

// emptyInstance reports whether an instance holds no state worth
// keeping. Caller holds the shard lock.
func (t *Template) emptyInstance(in *instance) bool {
	switch t.cfg.Kind {
	case KWithin:
		return len(in.partials) == 0
	case KDuring:
		return !in.open
	case KTumbling, KAll:
		return in.count == 0
	}
	// KSliding, KAggregate: a full sliding window is live state (the
	// next occurrence still fires); only an empty one is dead.
	return len(in.times) == 0
}

// GC reclaims expired partial matches and now-empty instances as of
// the given logical time. It returns the number of partials and
// instances reclaimed. Kinds without a time window (during, count
// windows) have nothing to expire; their instances die inline when
// their state empties.
func (t *Template) GC(now time.Time) (partialsReclaimed, instancesReclaimed int) {
	if t.cfg.Window <= 0 {
		return 0, 0
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for key, in := range sh.inst {
			before := t.livePartials(in)
			switch t.cfg.Kind {
			case KWithin:
				t.expireWithin(in, now)
			case KAggregate:
				t.expireAggregate(in, now)
			}
			partialsReclaimed += before - t.livePartials(in)
			if t.emptyInstance(in) {
				delete(sh.inst, key)
				sh.spare = in
				t.instances.Add(-1)
				instancesReclaimed++
			}
		}
		sh.mu.Unlock()
	}
	return partialsReclaimed, instancesReclaimed
}

// livePartials counts one instance's open partials for the kinds GC
// sweeps (KWithin, KAggregate). Caller holds the shard lock.
func (t *Template) livePartials(in *instance) int {
	if t.cfg.Kind == KWithin {
		return len(in.partials)
	}
	return len(in.times)
}

// Stats snapshots the template's counters.
func (t *Template) Stats() Stats {
	return Stats{
		Instances: int(t.instances.Load()),
		Partials:  int(t.partials.Load()),
		Fired:     t.fired.Load(),
		Expired:   t.expired.Load(),
	}
}

// ShardInstances reports the live instance count per shard — the
// distribution evidence for the per-shard parallel-detection claim.
func (t *Template) ShardInstances() []int {
	out := make([]int, len(t.shards))
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.inst)
		sh.mu.Unlock()
	}
	return out
}

func (t *Template) shardOf(key string) int {
	var h maphash.Hash
	h.SetSeed(t.seed)
	h.WriteString(key)
	return int(h.Sum64() & uint64(len(t.shards)-1))
}

func mergeBindings(first, second map[string]datum.Value) map[string]datum.Value {
	out := make(map[string]datum.Value, len(first)+len(second))
	for k, v := range first {
		out[k] = v
	}
	for k, v := range second {
		out[k] = v
	}
	return out
}
