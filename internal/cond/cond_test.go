package cond

import (
	"sort"
	"testing"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/query"
)

// memReader is a tiny in-memory query.Reader with a scan counter.
type memReader struct {
	classes map[string][]row
	scans   int
}

type row struct {
	oid   datum.OID
	attrs datum.Row
}

func newReader() *memReader { return &memReader{classes: map[string][]row{}} }

func (m *memReader) add(class string, oid datum.OID, attrs map[string]datum.Value) {
	m.classes[class] = append(m.classes[class], row{oid, datum.RowOf(attrs)})
	sort.Slice(m.classes[class], func(i, j int) bool { return m.classes[class][i].oid < m.classes[class][j].oid })
}

func (m *memReader) ScanClass(class string, fn func(datum.OID, datum.Row) bool) error {
	m.scans++
	for _, r := range m.classes[class] {
		if !fn(r.oid, r.attrs) {
			break
		}
	}
	return nil
}

func (m *memReader) LookupRange(string, string, *datum.Value, *datum.Value, bool, bool) ([]datum.OID, bool) {
	return nil, false
}

func (m *memReader) Fetch(oid datum.OID) (string, datum.Row, bool) {
	for class, rows := range m.classes {
		for _, r := range rows {
			if r.oid == oid {
				return class, r.attrs, true
			}
		}
	}
	return "", datum.Row{}, false
}

func stockReader() *memReader {
	m := newReader()
	m.add("Stock", 1, map[string]datum.Value{"symbol": datum.Str("XRX"), "price": datum.Float(50)})
	m.add("Stock", 2, map[string]datum.Value{"symbol": datum.Str("IBM"), "price": datum.Float(120)})
	return m
}

func mustCond(t *testing.T, srcs ...string) Condition {
	t.Helper()
	c, err := ParseCondition(srcs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseCondition(t *testing.T) {
	c := mustCond(t, "select s from Stock s", "select s from Stock s where s.price > 10")
	if len(c.Queries) != 2 {
		t.Fatalf("queries = %d", len(c.Queries))
	}
	if _, err := ParseCondition([]string{"not a query"}); err == nil {
		t.Fatal("bad query should fail")
	}
	got := c.Strings()
	if len(got) != 2 || got[0] != "select s from Stock s" {
		t.Fatalf("Strings = %v", got)
	}
}

func TestConditionFootprint(t *testing.T) {
	c := mustCond(t,
		"select s from Stock s where s.price > event.p",
		"select h from Holding h where h.qty > 0")
	fp := c.Footprint()
	if len(fp.Classes) != 2 {
		t.Fatalf("classes = %v", fp.Classes)
	}
	if len(fp.EventArgs) != 1 || fp.EventArgs[0] != "p" {
		t.Fatalf("eventArgs = %v", fp.EventArgs)
	}
}

func TestEmptyConditionAlwaysSatisfied(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, Condition{})
	out, err := e.Evaluate(stockReader(), nil, false, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !out[1].Satisfied || out[1].Primary != nil {
		t.Fatalf("outcome = %+v", out[1])
	}
}

func TestSatisfiedAndUnsatisfied(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, mustCond(t, "select s from Stock s where s.price >= 100"))
	e.AddRule(2, mustCond(t, "select s from Stock s where s.price >= 1000"))
	out, err := e.Evaluate(stockReader(), nil, false, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out[1].Satisfied || len(out[1].Primary.Rows) != 1 {
		t.Fatalf("rule 1 = %+v", out[1])
	}
	if out[2].Satisfied || out[2].Primary != nil {
		t.Fatalf("rule 2 = %+v", out[2])
	}
}

func TestAllQueriesMustBeNonEmpty(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, mustCond(t,
		"select s from Stock s where s.price >= 100",  // non-empty
		"select s from Stock s where s.price >= 1000", // empty -> unsatisfied
	))
	out, err := e.Evaluate(stockReader(), nil, false, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Satisfied {
		t.Fatal("condition with one empty query must be unsatisfied")
	}
}

func TestPrimaryIsFirstQuery(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, mustCond(t,
		"select s.symbol as sym from Stock s where s.price >= 100",
		"select s from Stock s"))
	out, err := e.Evaluate(stockReader(), nil, false, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	p := out[1].Primary
	if p == nil || len(p.Rows) != 1 || p.RowBindings(0)["sym"].AsString() != "IBM" {
		t.Fatalf("primary = %+v", p)
	}
}

func TestEventArgsReachQueries(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, mustCond(t, "select s from Stock s where s.symbol = event.sym"))
	args := map[string]datum.Value{"sym": datum.Str("XRX")}
	out, err := e.Evaluate(stockReader(), args, false, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !out[1].Satisfied {
		t.Fatal("event-arg query should match")
	}
}

func TestSharingEvaluatesOncePerEvent(t *testing.T) {
	e := New(plan.Options{})
	const rules = 50
	for i := 1; i <= rules; i++ {
		e.AddRule(uint64(i), mustCond(t, "select s from Stock s where s.price >= 100"))
	}
	if e.NodeCount() != 1 {
		t.Fatalf("NodeCount = %d, want 1 shared node", e.NodeCount())
	}
	m := stockReader()
	ids := make([]uint64, rules)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	out, err := e.Evaluate(m, nil, false, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !out[id].Satisfied {
			t.Fatalf("rule %d unsatisfied", id)
		}
	}
	if m.scans != 1 {
		t.Fatalf("scans = %d; shared node must be evaluated once", m.scans)
	}
	st := e.Stats()
	if st.Evaluations != 1 || st.SharedHits != rules-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistinctQueriesGetDistinctNodes(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, mustCond(t, "select s from Stock s where s.price >= 100"))
	e.AddRule(2, mustCond(t, "select s from Stock s where s.price >= 200"))
	if e.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d", e.NodeCount())
	}
}

func TestWhitespaceVariantsShareNode(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, mustCond(t, "select s from Stock s where s.price>=100"))
	e.AddRule(2, mustCond(t, "select  s  from Stock s where (s.price >= 100)"))
	if e.NodeCount() != 1 {
		t.Fatalf("NodeCount = %d; canonicalization failed", e.NodeCount())
	}
}

func TestRemoveRuleDropsUnreferencedNodes(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, mustCond(t, "select s from Stock s"))
	e.AddRule(2, mustCond(t, "select s from Stock s"))
	e.RemoveRule(1)
	if e.NodeCount() != 1 {
		t.Fatal("node dropped while still referenced")
	}
	e.RemoveRule(2)
	if e.NodeCount() != 0 {
		t.Fatal("unreferenced node retained")
	}
	e.RemoveRule(99) // unknown: no-op
	// Evaluating a removed rule yields no outcome.
	out, err := e.Evaluate(stockReader(), nil, false, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out[1]; ok {
		t.Fatal("removed rule produced an outcome")
	}
}

func TestQueryErrorSurfaces(t *testing.T) {
	e := New(plan.Options{})
	e.AddRule(1, mustCond(t, "select s.price / 0 from Stock s"))
	if _, err := e.Evaluate(stockReader(), nil, false, []uint64{1}); err == nil {
		t.Fatal("runtime error must surface")
	}
}

func TestMixedRulesOneEvaluatePass(t *testing.T) {
	e := New(plan.Options{})
	shared := "select s from Stock s where s.price >= 100"
	e.AddRule(1, mustCond(t, shared))
	e.AddRule(2, mustCond(t, shared, "select s from Stock s where s.price >= 40"))
	e.AddRule(3, mustCond(t, "select s from Stock s where s.price >= 999"))
	m := stockReader()
	out, err := e.Evaluate(m, nil, false, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out[1].Satisfied || !out[2].Satisfied || out[3].Satisfied {
		t.Fatalf("outcomes = %+v %+v %+v", out[1], out[2], out[3])
	}
	if m.scans != 3 { // shared node once + >=40 once + >=999 once
		t.Fatalf("scans = %d, want 3", m.scans)
	}
}

func TestNodesIntrospection(t *testing.T) {
	e := New(plan.Options{})
	shared := "select s from Stock s where s.price >= 100"
	e.AddRule(1, mustCond(t, shared))
	e.AddRule(2, mustCond(t, shared, "select s from Stock s where s.symbol = event.sym"))
	nodes := e.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("nodes = %+v", nodes)
	}
	if nodes[0].Refs != 2 {
		t.Fatalf("most-shared node = %+v", nodes[0])
	}
	if nodes[1].Refs != 1 {
		t.Fatalf("event node = %+v", nodes[1])
	}
}

var _ query.Reader = (*memReader)(nil)
