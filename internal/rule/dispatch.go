package rule

import (
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/datum"
	"repro/internal/query"
)

// Rule discrimination at signal time. A rule's guards are the
// event-only conjuncts of its condition queries (query.Guards): each
// can be decided from a signal's bindings alone, and one that is
// definitely false leaves its query — so the condition — unsatisfiable
// whatever the database holds. The dispatch table of a detector
// subscription files every enabled rule where a signal finds it
// without looking at the others: rules without guards in an "always"
// list per E-C coupling, guarded rules in a predicate index under one
// of their guards (the access guard). The index only has to return a
// superset of the rules that guard lets through; every candidate's
// guards — the access guard included — are then tested exactly by
// their compiled closures, so the index's float keys and the missing-
// value rules never have to agree with the evaluator bit for bit.
//
// A table is immutable. Lifecycle operations (register, unregister,
// enable, disable — all under Manager.mu) derive the next one by
// copying the slices and the one map shard they touch, and publish it
// with one atomic store; HandleEmit loads it and takes no lock.

const numCouplings = 3 // Immediate, Deferred, Separate

type dispatchTable struct {
	always   [numCouplings][]*Rule
	args     []argIndex // guarded rules, by the event argument their access guard tests
	scan     []*Rule    // guarded rules whose guards have no indexable shape
	nGuarded int
}

// size is the number of rules the table dispatches to.
func (t *dispatchTable) size() int {
	n := t.nGuarded
	for _, rules := range t.always {
		n += len(rules)
	}
	return n
}

// eqShards splits an argument's equality map so that deriving the next
// table copies one shard, not the whole map.
const eqShards = 64

// argIndex holds the guarded rules whose access guard compares one
// event argument with a literal.
type argIndex struct {
	name string
	// eq: `event.name = literal`, by the literal's eqKey.
	eq  [eqShards]map[string][]*Rule
	nEq int
	// cmp: `event.name </<=/>/>= literal` with a numeric literal, one
	// ascending threshold slice per operator.
	cmp [4]thresholds
}

type thresholds struct {
	keys  []float64 // ascending literal values
	rules []*Rule   // rules[i] tests against keys[i]
}

// access says where a guarded rule is filed.
type access struct {
	kind accessKind
	arg  string
	key  string  // accessEq
	op   int     // accessCmp: index into argIndex.cmp
	at   float64 // accessCmp
}

type accessKind uint8

const (
	accessScan accessKind = iota
	accessEq
	accessCmp
)

func cmpIndex(op query.BinOp) int {
	switch op {
	case query.OpLt:
		return 0
	case query.OpLe:
		return 1
	case query.OpGt:
		return 2
	default: // query.OpGe
		return 3
	}
}

// eqKey returns the hash key under which v meets every literal it
// compares equal to: ints and floats share datum's float-ordered key
// with the two zeros folded. Lists have none; neither has NaN, which
// datum.Compare calls equal to every number.
func eqKey(v datum.Value) (string, bool) {
	switch {
	case v.Kind() == datum.KindList:
		return "", false
	case v.IsNumeric():
		f := v.AsFloat()
		if math.IsNaN(f) {
			return "", false
		}
		if f == 0 {
			v = datum.Float(0)
		}
	}
	return v.Key(), true
}

// chooseAccess picks the guard a rule is indexed under: an equality if
// it has one (a hash probe leaves the fewest candidates), else a
// numeric threshold, else none.
func chooseAccess(guards []query.Guard) access {
	a := access{kind: accessScan}
	for _, g := range guards {
		if g.Arg == "" {
			continue
		}
		if g.Op == query.OpEq {
			if key, ok := eqKey(g.Lit); ok {
				return access{kind: accessEq, arg: g.Arg, key: key}
			}
		} else if a.kind == accessScan && g.Lit.IsNumeric() && !math.IsNaN(g.Lit.AsFloat()) {
			a = access{kind: accessCmp, arg: g.Arg, op: cmpIndex(g.Op), at: g.Lit.AsFloat()}
		}
	}
	return a
}

func eqShard(key string) int {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % eqShards)
}

// with returns a table that also dispatches to r.
func (t *dispatchTable) with(r *Rule) *dispatchTable {
	nt := *t
	if len(r.guards) == 0 {
		nt.always[r.EC] = appendCopy(t.always[r.EC], r)
		return &nt
	}
	nt.nGuarded++
	a := r.access
	if a.kind == accessScan {
		nt.scan = appendCopy(t.scan, r)
		return &nt
	}
	i := slices.IndexFunc(t.args, func(ix argIndex) bool { return ix.name == a.arg })
	if i < 0 {
		i = len(t.args)
		nt.args = append(slices.Clone(t.args), argIndex{name: a.arg})
	} else {
		nt.args = slices.Clone(t.args)
	}
	ix := &nt.args[i]
	if a.kind == accessEq {
		s := eqShard(a.key)
		shard := maps.Clone(ix.eq[s])
		if shard == nil {
			shard = map[string][]*Rule{}
		}
		shard[a.key] = appendCopy(shard[a.key], r)
		ix.eq[s] = shard
		ix.nEq++
		return &nt
	}
	th := &ix.cmp[a.op]
	pos := sort.SearchFloat64s(th.keys, a.at)
	th.keys = slices.Insert(slices.Clone(th.keys), pos, a.at)
	th.rules = slices.Insert(slices.Clone(th.rules), pos, r)
	return &nt
}

// without returns a table that no longer dispatches to r, which must
// be in t.
func (t *dispatchTable) without(r *Rule) *dispatchTable {
	nt := *t
	if len(r.guards) == 0 {
		nt.always[r.EC] = removeCopy(t.always[r.EC], r)
		return &nt
	}
	nt.nGuarded--
	a := r.access
	if a.kind == accessScan {
		nt.scan = removeCopy(t.scan, r)
		return &nt
	}
	i := slices.IndexFunc(t.args, func(ix argIndex) bool { return ix.name == a.arg })
	nt.args = slices.Clone(t.args)
	ix := &nt.args[i]
	if a.kind == accessEq {
		s := eqShard(a.key)
		shard := maps.Clone(ix.eq[s])
		if rest := removeCopy(shard[a.key], r); len(rest) > 0 {
			shard[a.key] = rest
		} else {
			delete(shard, a.key)
		}
		ix.eq[s] = shard
		ix.nEq--
	} else {
		th := &ix.cmp[a.op]
		pos := slices.Index(th.rules, r)
		th.keys = slices.Delete(slices.Clone(th.keys), pos, pos+1)
		th.rules = slices.Delete(slices.Clone(th.rules), pos, pos+1)
	}
	if ix.nEq == 0 && !slices.ContainsFunc(ix.cmp[:], func(th thresholds) bool { return len(th.rules) > 0 }) {
		nt.args = slices.Delete(nt.args, i, i+1)
	}
	return &nt
}

func appendCopy(s []*Rule, r *Rule) []*Rule {
	out := make([]*Rule, len(s)+1)
	copy(out, s)
	out[len(s)] = r
	return out
}

func removeCopy(s []*Rule, r *Rule) []*Rule {
	i := slices.Index(s, r)
	return slices.Delete(slices.Clone(s), i, i+1)
}

// match returns the rules a signal with these bindings triggers,
// grouped by E-C coupling, and how many guarded rules its guards
// rejected. The returned slices may be the table's own: callers must
// not modify them.
func (t *dispatchTable) match(args map[string]datum.Value) (groups [numCouplings][]*Rule, filtered int) {
	if t.nGuarded == 0 {
		return t.always, 0
	}
	m := matcher{args: args, groups: t.always}
	for i := range t.args {
		t.args[i].candidates(&m)
	}
	for _, r := range t.scan {
		m.consider(r)
	}
	return m.groups, t.nGuarded - m.passed
}

// matcher collects the candidates of one signal that pass their guards.
type matcher struct {
	args   map[string]datum.Value
	groups [numCouplings][]*Rule
	owned  [numCouplings]bool // groups[i] is a private copy, not the table's slice
	passed int
}

func (m *matcher) consider(r *Rule) {
	for _, g := range r.guards {
		if g.Rejects(m.args) {
			return
		}
	}
	if !m.owned[r.EC] {
		m.groups[r.EC] = slices.Clone(m.groups[r.EC])
		m.owned[r.EC] = true
	}
	m.groups[r.EC] = append(m.groups[r.EC], r)
	m.passed++
}

// candidates visits a superset of the index's rules whose access guard
// is not definitely false on args.
func (ix *argIndex) candidates(m *matcher) {
	v, ok := m.args[ix.name]
	num := ok && v.IsNumeric()
	if !ok || v.IsNull() || (num && math.IsNaN(v.AsFloat())) {
		// Nothing compares definitely false with a missing or null
		// argument, and datum.Compare orders NaN equal to every number.
		ix.all(m)
		return
	}
	if ix.nEq > 0 {
		// A list equals no indexed literal (none is a list): no
		// candidates.
		if key, ok := eqKey(v); ok {
			for _, r := range ix.eq[eqShard(key)][key] {
				m.consider(r)
			}
		}
	}
	for op := range ix.cmp {
		th := &ix.cmp[op]
		if len(th.keys) == 0 {
			continue
		}
		lo, hi := 0, len(th.keys)
		if num {
			// Bounds are inclusive for the strict operators too: ints
			// compare exactly but are keyed through float64, so two
			// distinct ints may share a key.
			f := v.AsFloat()
			if op < 2 { // event.a < or <= literal: literals at or above f
				lo = sort.SearchFloat64s(th.keys, f)
			} else { // event.a > or >= literal: literals at or below f
				hi = sort.Search(len(th.keys), func(i int) bool { return th.keys[i] > f })
			}
		}
		// A non-number against a numeric threshold is a type error,
		// which never rejects: every rule stays a candidate.
		for _, r := range th.rules[lo:hi] {
			m.consider(r)
		}
	}
}

func (ix *argIndex) all(m *matcher) {
	if ix.nEq > 0 {
		for _, shard := range ix.eq {
			for _, rules := range shard {
				for _, r := range rules {
					m.consider(r)
				}
			}
		}
	}
	for op := range ix.cmp {
		for _, r := range ix.cmp[op].rules {
			m.consider(r)
		}
	}
}
