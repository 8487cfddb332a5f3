// Package cond implements the HiPAC Condition Evaluator (§5.5 of the
// paper): given an event signal and the set of rules it triggered,
// determine efficiently which rule conditions are satisfied.
//
// A condition is a collection of queries; it is satisfied iff every
// query returns a non-empty result (§2.1). The evaluator maintains a
// *condition graph*: each syntactically distinct query (by canonical
// form) is a single node shared by all rules that use it, so a query
// appearing in a thousand rules is evaluated once per event — the
// "multiple query optimization" of §5.5 in spirit. No result outlives
// the Evaluate call that computed it: a cross-event cache could serve
// only conditions that read no event argument, and no workload has
// one (DESIGN.md "Condition graph"). Beside each node live its
// query's guards (query.Guards): the event-only conjuncts the Rule
// Manager tests at signal time, so that most unsatisfiable firings
// never reach Evaluate at all.
//
// Evaluation reads the database through a query.Reader supplied by
// the caller. The rule manager passes a snapshot-pinned reader
// (object.SnapshotReader): every query of a coupling group's shared
// evaluation resolves committed data at one commit LSN — plus the
// triggering transaction's own uncommitted effects — so a deferred
// condition can never observe a torn view of a concurrent commit,
// and evaluation never blocks or is blocked by committers.
package cond

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/query"
)

// Condition is a parsed rule condition: zero or more queries, the
// first of which is the *primary* query whose result rows drive the
// action (one action execution per row). An empty condition is always
// satisfied.
type Condition struct {
	Queries []*query.Query
}

// ParseCondition parses the query texts of a condition.
func ParseCondition(srcs []string) (Condition, error) {
	c := Condition{}
	for i, src := range srcs {
		q, err := query.Parse(src)
		if err != nil {
			return Condition{}, fmt.Errorf("cond: query %d: %w", i+1, err)
		}
		c.Queries = append(c.Queries, q)
	}
	return c, nil
}

// Strings returns the canonical texts of the condition's queries.
func (c Condition) Strings() []string {
	out := make([]string, len(c.Queries))
	for i, q := range c.Queries {
		out[i] = q.String()
	}
	return out
}

// Footprint unions the footprints of all queries.
func (c Condition) Footprint() query.Footprint {
	fp := query.Footprint{Classes: map[string]map[string]struct{}{}}
	seen := map[string]bool{}
	for _, q := range c.Queries {
		qf := q.ComputeFootprint()
		for cls, attrs := range qf.Classes {
			if fp.Classes[cls] == nil {
				fp.Classes[cls] = map[string]struct{}{}
			}
			for a := range attrs {
				fp.Classes[cls][a] = struct{}{}
			}
		}
		for _, a := range qf.EventArgs {
			if !seen[a] {
				seen[a] = true
				fp.EventArgs = append(fp.EventArgs, a)
			}
		}
	}
	return fp
}

// Outcome is the result of evaluating one rule's condition.
type Outcome struct {
	Satisfied bool
	// Primary is the first query's result when satisfied (nil for an
	// empty condition). Its rows drive action execution.
	Primary *query.Result
}

// Stats counts evaluator activity; Evaluations counts query-node
// evaluations actually performed, and SharedHits counts rule-queries
// answered from a node already evaluated for the same event.
// CacheHits is always zero; it stays for the benchmark's metrics.
type Stats struct {
	Evaluations uint64
	SharedHits  uint64
	CacheHits   uint64
}

type qnode struct {
	q         *query.Query
	canonical string
	refs      int

	// guards are the query's event-only conjuncts, compiled once per
	// node and shared by every rule that uses the query.
	guards []query.Guard
}

type ruleEntry struct {
	nodes []*qnode
}

// Evaluator is the condition evaluator. It is safe for concurrent
// use. The activity counters are atomics, not mu-guarded state:
// high-fan-out firing paths (many separate couplings evaluating
// concurrently, e.g. composite-event bursts) would otherwise
// serialize on the evaluator mutex just to count shared hits.
type Evaluator struct {
	mu    sync.Mutex
	nodes map[string]*qnode
	rules map[uint64]*ruleEntry
	obsm  *obs.Metrics // nil-safe evaluation-latency observer
	exec  ExecFunc     // nil means query.Eval (tree-walk)

	nEvals, nShared atomic.Uint64
}

// ExecFunc runs one query against a reader — the pluggable execution
// engine. The engine installs the cost-based planner here (plan.Exec
// with its configured parallelism, so rule conditions get the same
// shard-parallel scans and partitioned hash joins as ad-hoc queries);
// nil keeps the tree-walk evaluator. Any implementation must preserve
// query.Eval's semantics exactly: condition satisfaction, the primary
// query's action-parameter rows, and the as-of-commit snapshot view
// all flow through the reader unchanged.
type ExecFunc func(q *query.Query, r query.Reader, eventArgs map[string]datum.Value) (*query.Result, error)

// SetExec installs the query-execution engine. Not safe to call
// concurrently with evaluation.
func (e *Evaluator) SetExec(fn ExecFunc) { e.exec = fn }

// SetObserver installs an evaluation-latency observer. Not safe to
// call concurrently with evaluation.
func (e *Evaluator) SetObserver(o *obs.Metrics) { e.obsm = o }

// New returns an empty evaluator.
func New() *Evaluator {
	return &Evaluator{
		nodes: map[string]*qnode{},
		rules: map[uint64]*ruleEntry{},
	}
}

// AddRule registers a rule's condition in the graph (§5.5 "Add
// Rule"). Queries identical to ones already in the graph share their
// node. It returns the condition's guards, the union over its
// queries: the condition needs every query non-empty, so one guard
// that is definitely false on a signal's bindings rules the whole
// condition out for that signal.
func (e *Evaluator) AddRule(id uint64, c Condition) []query.Guard {
	e.mu.Lock()
	defer e.mu.Unlock()
	entry := &ruleEntry{}
	var guards []query.Guard
	for _, q := range c.Queries {
		key := q.String()
		n := e.nodes[key]
		if n == nil {
			n = &qnode{q: q, canonical: key, guards: query.Guards(q)}
			e.nodes[key] = n
		}
		n.refs++
		entry.nodes = append(entry.nodes, n)
		guards = append(guards, n.guards...)
	}
	e.rules[id] = entry
	return guards
}

// RemoveRule unregisters a rule (§5.5 "Delete Rule"), dropping
// graph nodes no longer referenced by any rule.
func (e *Evaluator) RemoveRule(id uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	entry := e.rules[id]
	if entry == nil {
		return
	}
	delete(e.rules, id)
	for _, n := range entry.nodes {
		n.refs--
		if n.refs == 0 {
			delete(e.nodes, n.canonical)
		}
	}
}

// NodeCount reports the number of distinct query nodes in the graph.
func (e *Evaluator) NodeCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.nodes)
}

// NodeInfo describes one condition-graph node for the rule-base
// tooling of §7 ("tools and techniques needed to develop large,
// complex rule bases").
type NodeInfo struct {
	Query string `json:"query"` // canonical text
	Refs  int    `json:"refs"`  // rules sharing the node
	// Guards are the query's event-only conjuncts, tested at signal
	// time before a firing is scheduled.
	Guards []string `json:"guards,omitempty"`
}

// Nodes returns the condition graph's nodes sorted by descending
// reference count (most-shared first), then by query text.
func (e *Evaluator) Nodes() []NodeInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]NodeInfo, 0, len(e.nodes))
	for _, n := range e.nodes {
		info := NodeInfo{Query: n.canonical, Refs: n.refs}
		for _, g := range n.guards {
			info.Guards = append(info.Guards, g.Expr.String())
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Refs != out[j].Refs {
			return out[i].Refs > out[j].Refs
		}
		return out[i].Query < out[j].Query
	})
	return out
}

// Stats returns a snapshot of the counters.
func (e *Evaluator) Stats() Stats {
	return Stats{
		Evaluations: e.nEvals.Load(),
		SharedHits:  e.nShared.Load(),
	}
}

// Evaluate determines which of the given rules' conditions are
// satisfied (§5.5 "Evaluate Conditions"). reader is bound to the
// transaction chosen by the coupling mode; eventArgs are the signal's
// bindings. Each distinct query node is evaluated at most once per
// call regardless of how many rules share it. clean is ignored; it
// stays for the benchmark's probes.
func (e *Evaluator) Evaluate(reader query.Reader, eventArgs map[string]datum.Value,
	clean bool, ruleIDs []uint64) (map[uint64]*Outcome, error) {

	// Snapshot the per-rule node lists under the lock; query
	// evaluation itself runs without holding it.
	e.mu.Lock()
	plan := make(map[uint64][]*qnode, len(ruleIDs))
	for _, id := range ruleIDs {
		if entry, ok := e.rules[id]; ok {
			plan[id] = entry.nodes
		}
	}
	e.mu.Unlock()

	memo := map[*qnode]*query.Result{}
	out := make(map[uint64]*Outcome, len(plan))
	for id, nodes := range plan {
		oc := &Outcome{Satisfied: true}
		for i, n := range nodes {
			res, ok := memo[n]
			if ok {
				e.nShared.Add(1)
			} else {
				var err error
				res, err = e.evalNode(n, reader, eventArgs)
				if err != nil {
					return nil, fmt.Errorf("cond: rule %d query %q: %w", id, n.canonical, err)
				}
				memo[n] = res
			}
			if res.Empty() {
				oc.Satisfied = false
				oc.Primary = nil
				break
			}
			if i == 0 {
				oc.Primary = res
			}
		}
		out[id] = oc
	}
	return out, nil
}

func (e *Evaluator) evalNode(n *qnode, reader query.Reader, eventArgs map[string]datum.Value) (*query.Result, error) {
	tm := e.obsm.Timer(obs.HCondEval)
	run := e.exec
	if run == nil {
		run = query.Eval
	}
	res, err := run(n.q, reader, eventArgs)
	if err != nil {
		return nil, err
	}
	tm.Done()
	e.nEvals.Add(1)
	return res, nil
}
