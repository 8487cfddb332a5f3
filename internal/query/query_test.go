package query

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/datum"
)

// memReader is an in-memory Reader with optional per-attribute
// indexes and probe counting.
type memReader struct {
	classes map[string][]object // sorted by OID
	indexed map[string]bool     // "class.attr"
	scans   int
	probes  int
}

func newMemReader() *memReader {
	return &memReader{classes: map[string][]object{}, indexed: map[string]bool{}}
}

func (m *memReader) add(class string, oid datum.OID, attrs map[string]datum.Value) {
	m.classes[class] = append(m.classes[class], object{oid: oid, row: datum.RowOf(attrs)})
	sort.Slice(m.classes[class], func(i, j int) bool {
		return m.classes[class][i].oid < m.classes[class][j].oid
	})
}

func (m *memReader) ScanClass(class string, fn func(datum.OID, datum.Row) bool) error {
	m.scans++
	for _, o := range m.classes[class] {
		if !fn(o.oid, o.row) {
			return nil
		}
	}
	return nil
}

func (m *memReader) LookupRange(class, attr string, lo, hi *datum.Value, loInc, hiInc bool) ([]datum.OID, bool) {
	if !m.indexed[class+"."+attr] {
		return nil, false
	}
	m.probes++
	var out []datum.OID
	for _, o := range m.classes[class] {
		v, ok := o.row.Get(attr)
		if !ok {
			continue
		}
		if lo != nil {
			c, err := datum.Compare(v, *lo)
			if err != nil || c < 0 || (c == 0 && !loInc) {
				continue
			}
		}
		if hi != nil {
			c, err := datum.Compare(v, *hi)
			if err != nil || c > 0 || (c == 0 && !hiInc) {
				continue
			}
		}
		out = append(out, o.oid)
	}
	return out, true
}

func (m *memReader) Fetch(oid datum.OID) (string, datum.Row, bool) {
	for class, objs := range m.classes {
		for _, o := range objs {
			if o.oid == oid {
				return class, o.row, true
			}
		}
	}
	return "", datum.Row{}, false
}

func stockReader() *memReader {
	m := newMemReader()
	data := []struct {
		oid    datum.OID
		symbol string
		price  float64
		sector string
	}{
		{1, "XRX", 50, "tech"},
		{2, "IBM", 120, "tech"},
		{3, "DEC", 30, "tech"},
		{4, "GM", 45, "auto"},
		{5, "F", 12, "auto"},
	}
	for _, d := range data {
		m.add("Stock", d.oid, map[string]datum.Value{
			"symbol": datum.Str(d.symbol),
			"price":  datum.Float(d.price),
			"sector": datum.Str(d.sector),
		})
	}
	return m
}

func col(res *Result, name string) []datum.Value {
	for i, c := range res.Columns {
		if c == name {
			out := make([]datum.Value, len(res.Rows))
			for r := range res.Rows {
				out[r] = res.Rows[r][i]
			}
			return out
		}
	}
	return nil
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"select s from Stock s",
		"select s from Stock s where (s.price >= 50)",
		"select s.symbol as sym, (s.price * 1.1) as target from Stock s",
		"select s, t from Stock s, Trade t where ((s.symbol = t.symbol) and (t.qty > 100))",
		"select count(*) from Stock s",
		"select s from Stock s where (s.price = event.new_price)",
		"select s from Stock s where (not (s.sector = 'auto'))",
	}
	for _, src := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("canonical form unstable: %q vs %q", q.String(), q2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"selec s from Stock s",
		"select from Stock s",
		"select s from",
		"select s from Stock",                      // missing var
		"select s from Stock s where",              // missing predicate
		"select x from Stock s",                    // undeclared var
		"select s from Stock s, Stock s",           // duplicate var
		"select s.price, count(*) from Stock s",    // mixed aggregate
		"select s from Stock s where count(*) > 1", // aggregate in where
		"select s from Stock s where s.price >",    // dangling op
		"select s from Stock s where s.price = 'x", // unterminated string
		"select s from Stock s extra",              // trailing tokens
		"select s from select s",                   // reserved class name
		"select s from Stock s where s.price ~ 3",  // bad char
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSimpleSelect(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s.symbol from Stock s where s.price >= 50"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	syms := col(res, "s.symbol")
	if len(syms) != 2 || syms[0].AsString() != "XRX" || syms[1].AsString() != "IBM" {
		t.Fatalf("rows = %v", syms)
	}
}

func TestSelectVarYieldsOID(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s from Stock s where s.symbol = 'GM'"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsOID() != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEmptyResult(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s from Stock s where s.price > 1000"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() {
		t.Fatal("want empty")
	}
}

func TestArithmeticAndAlias(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s.price * 2 as double, s.price + 1 as inc from Stock s where s.symbol = 'F'"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "double" || res.Columns[1] != "inc" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][0].AsFloat() != 24 || res.Rows[0][1].AsFloat() != 13 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestEventArguments(t *testing.T) {
	m := stockReader()
	args := map[string]datum.Value{"sym": datum.Str("DEC"), "limit": datum.Float(40)}
	res, err := Eval(MustParse("select s from Stock s where s.symbol = event.sym and s.price < event.limit"), m, args)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsOID() != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Missing event argument: predicate is unknown -> no rows, no error.
	res, err = Eval(MustParse("select s from Stock s where s.symbol = event.missing"), m, args)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() {
		t.Fatal("missing event arg should yield no rows")
	}
}

func TestJoin(t *testing.T) {
	m := stockReader()
	m.add("Holding", 10, map[string]datum.Value{"symbol": datum.Str("XRX"), "qty": datum.Int(500)})
	m.add("Holding", 11, map[string]datum.Value{"symbol": datum.Str("GM"), "qty": datum.Int(50)})
	m.add("Holding", 12, map[string]datum.Value{"symbol": datum.Str("XRX"), "qty": datum.Int(100)})
	res, err := Eval(MustParse(
		"select h.qty, s.price from Stock s, Holding h where h.symbol = s.symbol and h.qty >= 100"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].AsFloat() != 50 {
			t.Fatalf("joined wrong stock: %v", row)
		}
	}
}

func TestJoinValueComputation(t *testing.T) {
	m := stockReader()
	m.add("Holding", 10, map[string]datum.Value{"symbol": datum.Str("IBM"), "qty": datum.Int(10)})
	res, err := Eval(MustParse(
		"select h.qty * s.price as value from Stock s, Holding h where h.symbol = s.symbol"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 1200 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse(
		"select count(*) as n, sum(s.price) as total, avg(s.price) as mean, min(s.price) as lo, max(s.price) as hi from Stock s where s.sector = 'tech'"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.RowBindings(0)
	if row["n"].AsInt() != 3 || row["total"].AsFloat() != 200 ||
		row["mean"].AsFloat() != 200.0/3 || row["lo"].AsFloat() != 30 || row["hi"].AsFloat() != 120 {
		t.Fatalf("row = %v", row)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select count(*) as n, sum(s.price) as total from Stock s where s.price > 9999"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.RowBindings(0)
	if row["n"].AsInt() != 0 || row["total"].AsInt() != 0 {
		t.Fatalf("row = %v", row)
	}
}

func TestAggregateExpression(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select count(*) + 100 as n from Stock s"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 105 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestCountAttribute(t *testing.T) {
	m := stockReader()
	m.add("Stock", 99, map[string]datum.Value{"symbol": datum.Str("N/A")}) // no price
	res, err := Eval(MustParse("select count(s.price) as n from Stock s"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 5 {
		t.Fatalf("count skips missing values: %v", res.Rows[0])
	}
}

func TestBuiltinFunctions(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select lower(s.symbol) as l, upper(s.sector) as u, abs(0 - s.price) as a, len(s.symbol) as n from Stock s where s.symbol = 'XRX'"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.RowBindings(0)
	if row["l"].AsString() != "xrx" || row["u"].AsString() != "TECH" ||
		row["a"].AsFloat() != 50 || row["n"].AsInt() != 3 {
		t.Fatalf("row = %v", row)
	}
}

func TestStringConcat(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s.symbol + '-' + s.sector as tag from Stock s where s.symbol = 'GM'"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsString() != "GM-auto" {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestBooleanLogicAndNot(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s from Stock s where not (s.sector = 'tech') or s.price > 100"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // GM, F (auto) + IBM (>100)
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDivisionByZero(t *testing.T) {
	m := stockReader()
	if _, err := Eval(MustParse("select s.price / 0 from Stock s"), m, nil); err == nil {
		t.Fatal("division by zero should error")
	}
	if _, err := Eval(MustParse("select 5 % 0 from Stock s"), m, nil); err == nil {
		t.Fatal("modulo by zero should error")
	}
}

func TestTypeErrors(t *testing.T) {
	m := stockReader()
	if _, err := Eval(MustParse("select s.price + s.symbol from Stock s"), m, nil); err == nil {
		t.Fatal("float + string should error")
	}
	if _, err := Eval(MustParse("select s from Stock s where s.price < s.symbol"), m, nil); err == nil {
		t.Fatal("incomparable < should error")
	}
	// Equality across kinds is just false, not an error.
	res, err := Eval(MustParse("select s from Stock s where s.price = s.symbol"), m, nil)
	if err != nil || !res.Empty() {
		t.Fatalf("cross-kind equality: %v %v", res, err)
	}
}

func TestIndexProbeUsed(t *testing.T) {
	m := stockReader()
	m.indexed["Stock.price"] = true
	res, err := Eval(MustParse("select s from Stock s where s.price >= 50"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if m.probes != 1 || m.scans != 0 {
		t.Fatalf("probes=%d scans=%d; index not used", m.probes, m.scans)
	}
}

func TestIndexProbeWithEventConstant(t *testing.T) {
	m := stockReader()
	m.indexed["Stock.symbol"] = true
	args := map[string]datum.Value{"sym": datum.Str("IBM")}
	res, err := Eval(MustParse("select s from Stock s where s.symbol = event.sym"), m, args)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || m.probes != 1 {
		t.Fatalf("rows=%d probes=%d", len(res.Rows), m.probes)
	}
}

func TestIndexResidualRecheck(t *testing.T) {
	// Flipped comparison: constant on the left.
	m := stockReader()
	m.indexed["Stock.price"] = true
	res, err := Eval(MustParse("select s from Stock s where 50 <= s.price"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNoIndexFallsBackToScan(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s from Stock s where s.price >= 50"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || m.scans != 1 {
		t.Fatalf("rows=%d scans=%d", len(res.Rows), m.scans)
	}
}

func TestFootprint(t *testing.T) {
	q := MustParse("select s.symbol from Stock s, Holding h where s.price > event.p and h.symbol = s.symbol")
	fp := q.ComputeFootprint()
	if len(fp.Classes) != 2 {
		t.Fatalf("classes = %v", fp.Classes)
	}
	stockAttrs := fp.Classes["Stock"]
	if _, ok := stockAttrs["symbol"]; !ok {
		t.Error("Stock.symbol missing from footprint")
	}
	if _, ok := stockAttrs["price"]; !ok {
		t.Error("Stock.price missing from footprint")
	}
	if _, ok := fp.Classes["Holding"]["symbol"]; !ok {
		t.Error("Holding.symbol missing")
	}
	if !reflect.DeepEqual(fp.EventArgs, []string{"p"}) {
		t.Errorf("EventArgs = %v", fp.EventArgs)
	}
}

func TestRowBindings(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s.symbol as sym, s.price as p from Stock s where s.symbol = 'XRX'"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := res.RowBindings(0)
	if b["sym"].AsString() != "XRX" || b["p"].AsFloat() != 50 {
		t.Fatalf("bindings = %v", b)
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr("event.price * 1.5 + 2")
	if err != nil {
		t.Fatal(err)
	}
	ev := &evaluator{event: map[string]datum.Value{"price": datum.Float(10)}}
	v, err := ev.eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if v.AsFloat() != 17 {
		t.Fatalf("value = %v", v)
	}
	if _, err := ParseExpr("1 + "); err == nil {
		t.Fatal("dangling expression should fail")
	}
	if _, err := ParseExpr("1 + 2 extra"); err == nil {
		t.Fatal("trailing tokens should fail")
	}
}

func TestCanonicalStringsAreShared(t *testing.T) {
	// Same query text modulo whitespace must canonicalize identically
	// (the condition graph keys on this).
	a := MustParse("select s from Stock s where s.price >= 50")
	b := MustParse("select  s  from Stock s where (s.price>=50)")
	if a.String() != b.String() {
		t.Fatalf("canonical forms differ: %q vs %q", a.String(), b.String())
	}
}

func TestLargeScanOrder(t *testing.T) {
	m := newMemReader()
	for i := 0; i < 500; i++ {
		m.add("N", datum.OID(i+1), map[string]datum.Value{"i": datum.Int(int64(i))})
	}
	res, err := Eval(MustParse("select n.i from N n where n.i % 100 = 0"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, fmt.Sprint(r[0].AsInt()))
	}
	if strings.Join(got, ",") != "0,100,200,300,400" {
		t.Fatalf("rows = %v", got)
	}
}

func TestOrderBy(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s.symbol from Stock s order by s.price"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].AsString())
	}
	if strings.Join(got, ",") != "F,DEC,GM,XRX,IBM" {
		t.Fatalf("asc order = %v", got)
	}
	res, err = Eval(MustParse("select s.symbol from Stock s order by s.price desc limit 2"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "IBM" || res.Rows[1][0].AsString() != "XRX" {
		t.Fatalf("desc limit = %v", res.Rows)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse(
		"select s.symbol from Stock s order by s.sector, s.price desc"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].AsString())
	}
	// auto (GM 45, F 12 desc) then tech (IBM 120, XRX 50, DEC 30 desc)
	if strings.Join(got, ",") != "GM,F,IBM,XRX,DEC" {
		t.Fatalf("multi-key order = %v", got)
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select s from Stock s limit 3"), m, nil)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("rows = %d (%v)", len(res.Rows), err)
	}
	res, err = Eval(MustParse("select s from Stock s limit 0"), m, nil)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("limit 0 rows = %d (%v)", len(res.Rows), err)
	}
}

func TestOrderByCanonicalRoundTrip(t *testing.T) {
	src := "select s from Stock s where (s.price > 1) order by s.price desc, s.symbol limit 5"
	q := MustParse(src)
	q2 := MustParse(q.String())
	if q.String() != q2.String() {
		t.Fatalf("canonical: %q vs %q", q.String(), q2.String())
	}
}

func TestOrderByErrors(t *testing.T) {
	bad := []string{
		"select s from Stock s order s.price",           // missing by
		"select s from Stock s order by",                // missing expr
		"select s from Stock s limit",                   // missing count
		"select s from Stock s limit x",                 // non-numeric
		"select count(*) from Stock s order by s.price", // aggregate + order
		"select s from Stock s order by x.price",        // undeclared var
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestUnaryOperators(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select -s.price as neg, -s.price * -1 as pos from Stock s where s.symbol = 'GM'"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := res.RowBindings(0)
	if b["neg"].AsFloat() != -45 || b["pos"].AsFloat() != 45 {
		t.Fatalf("row = %v", b)
	}
	// Negating an int stays an int.
	m.add("N", 50, map[string]datum.Value{"v": datum.Int(7)})
	res, err = Eval(MustParse("select -n.v as x from N n"), m, nil)
	if err != nil || res.Rows[0][0].Kind() != datum.KindInt || res.Rows[0][0].AsInt() != -7 {
		t.Fatalf("int negation = %v (%v)", res.Rows[0][0], err)
	}
	// Negating a string errors.
	if _, err := Eval(MustParse("select -s.symbol from Stock s"), m, nil); err == nil {
		t.Fatal("negating a string should error")
	}
	// not applied to a non-bool errors.
	if _, err := Eval(MustParse("select not s.price from Stock s"), m, nil); err == nil {
		t.Fatal("not of a float should error")
	}
}

func TestScalarFunctionErrors(t *testing.T) {
	m := stockReader()
	bad := []string{
		"select abs(s.symbol) from Stock s", // abs of string
		"select nosuchfn(s.price) from Stock s",
		"select abs(s.price, s.price) from Stock s", // arity
		// lower, upper and len of the wrong kind used to yield "" and 0.
		"select lower(s.price) from Stock s",
		"select upper(42) from Stock s",
		"select len(s.price) from Stock s",
		"select s from Stock s where upper(null) = ''",
		"select s from Stock s where len(s) = 0",
	}
	for _, src := range bad {
		if _, err := Eval(MustParse(src), m, nil); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
	// The kernel is shared: guards and rule actions agree.
	for _, src := range []string{"lower(42)", "len(n)", "upper(null)"} {
		x, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := CompileExpr(x).Eval(nil, map[string]datum.Value{"n": datum.Int(42)}, nil); err == nil {
			t.Errorf("action %s = %v, want a type error", src, v)
		}
	}
	g := Guards(MustParse("select s from Stock s where len(event.n) = 0"))[0]
	if g.Rejects(map[string]datum.Value{"n": datum.Int(42)}) {
		t.Error("a guard with a type error must not reject")
	}
	res, err := Eval(MustParse("select len(s.symbol) as n, upper(s.symbol) as u, len(event.l) as m from Stock s where s.symbol = 'GM'"),
		m, map[string]datum.Value{"l": datum.List(datum.Int(1), datum.Int(2))})
	if err != nil || res.Rows[0][0].AsInt() != 2 || res.Rows[0][1].AsString() != "GM" || res.Rows[0][2].AsInt() != 2 {
		t.Fatalf("builtins over strings and lists: %+v, %v", res, err)
	}
}

func TestActionExprDereferencesThroughReader(t *testing.T) {
	m := stockReader()
	eval := func(src string, r Reader, vars, args map[string]datum.Value) (datum.Value, error) {
		x, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		return CompileExpr(x).Eval(r, vars, args)
	}
	// Bind s to the GM object's OID value; the expression must fetch
	// its attrs through the reader.
	v, err := eval("s.price * 2", m, map[string]datum.Value{"s": datum.ID(4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.AsFloat() != 90 {
		t.Fatalf("deref = %v", v)
	}
	// Unbound variable: evaluates to null (action semantics).
	v, err = eval("s.price * 2", m, nil, nil)
	if err != nil || !v.IsNull() {
		t.Fatalf("unbound = %v (%v)", v, err)
	}
	// Dereferencing a non-OID binding errors.
	if _, err := eval("s.price * 2", m, map[string]datum.Value{"s": datum.Int(3)}, nil); err == nil {
		t.Fatal("deref of non-OID should error")
	}
	// Dereferencing without a reader errors.
	if _, err := eval("s.price * 2", nil, map[string]datum.Value{"s": datum.ID(4)}, nil); err == nil {
		t.Fatal("deref without reader should error")
	}
	// Functions and comparisons over resolved bindings work.
	v, err = eval("upper(sym) + '!'", nil, map[string]datum.Value{"sym": datum.Str("gm")}, nil)
	if err != nil || v.AsString() != "GM!" {
		t.Fatalf("call over binding = %v (%v)", v, err)
	}
	v, err = eval("qty >= 100 and event.go", nil,
		map[string]datum.Value{"qty": datum.Int(500)},
		map[string]datum.Value{"go": datum.Bool(true)})
	if err != nil || !v.AsBool() {
		t.Fatalf("boolean over bindings = %v (%v)", v, err)
	}
}

func TestAggregateOverExpression(t *testing.T) {
	m := stockReader()
	res, err := Eval(MustParse("select sum(s.price * 2) as d from Stock s where s.sector = 'auto'"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsFloat() != 114 { // (45+12)*2
		t.Fatalf("sum of expr = %v", res.Rows[0][0])
	}
	// min/max over strings.
	res, err = Eval(MustParse("select min(s.symbol) as lo, max(s.symbol) as hi from Stock s"), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := res.RowBindings(0)
	if b["lo"].AsString() != "DEC" || b["hi"].AsString() != "XRX" {
		t.Fatalf("string min/max = %v", b)
	}
	// avg over empty input is null.
	res, err = Eval(MustParse("select avg(s.price) as a from Stock s where s.price > 1e9"), m, nil)
	if err != nil || !res.Rows[0][0].IsNull() {
		t.Fatalf("avg(empty) = %v (%v)", res.Rows[0][0], err)
	}
}
