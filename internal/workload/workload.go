// Package workload builds the synthetic schemas, data, and rule sets
// the per-claim microbenchmarks (bench_test.go) use to regenerate the
// experiments in DESIGN.md's per-experiment index.
package workload

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/rule"
)

// Epoch is the fixed virtual-clock start used by deterministic runs.
var Epoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// MustEngine returns a fresh in-memory engine on a virtual clock,
// panicking on setup failure (benchmark context).
func MustEngine() (*core.Engine, *clock.Virtual) {
	clk := clock.NewVirtual(Epoch)
	e, err := core.Open(core.Options{Clock: clk})
	if err != nil {
		panic(err)
	}
	return e, clk
}

// StockClass is the benchmark's base schema.
var StockClass = object.Class{
	Name: "Stock",
	Attrs: []object.AttrDef{
		{Name: "symbol", Kind: datum.KindString, Required: true, Indexed: true},
		{Name: "price", Kind: datum.KindFloat, Indexed: true},
		{Name: "volume", Kind: datum.KindInt},
	},
}

// AuditClass receives rule-action output.
var AuditClass = object.Class{
	Name: "Audit",
	Attrs: []object.AttrDef{
		{Name: "note", Kind: datum.KindString},
		{Name: "price", Kind: datum.KindFloat},
	},
}

// DefineBase installs StockClass and AuditClass.
func DefineBase(e *core.Engine) error {
	tx := e.Begin()
	if err := e.DefineClass(tx, StockClass); err != nil {
		tx.Abort()
		return err
	}
	if err := e.DefineClass(tx, AuditClass); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// SeedStocks creates n Stock objects with prices i (one committed
// transaction).
func SeedStocks(e *core.Engine, n int) ([]datum.OID, error) {
	tx := e.Begin()
	oids := make([]datum.OID, n)
	for i := range oids {
		oid, err := e.Create(tx, "Stock", map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("S%05d", i)),
			"price":  datum.Float(float64(i)),
		})
		if err != nil {
			tx.Abort()
			return nil, err
		}
		oids[i] = oid
	}
	return oids, tx.Commit()
}

// UpdateOne runs a single-update transaction against oid.
func UpdateOne(e *core.Engine, oid datum.OID, price float64) error {
	tx := e.Begin()
	if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(price)}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// AuditRuleDef returns a rule that appends an Audit row on Stock
// modifications with the given couplings.
func AuditRuleDef(name, ec, ca string) rule.Def {
	return rule.Def{
		Name:  name,
		Event: "modify(Stock)",
		Action: []rule.Step{{
			Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'w'", "price": "event.new_price"},
		}},
		EC: ec, CA: ca,
	}
}

// CallRuleDefs returns n rules on the same event whose actions invoke
// the named registered callback (used with a work function to measure
// sibling concurrency).
func CallRuleDefs(n int, fn string) []rule.Def {
	defs := make([]rule.Def, n)
	for i := range defs {
		defs[i] = rule.Def{
			Name:   fmt.Sprintf("sib-%03d", i),
			Event:  "modify(Stock)",
			Action: []rule.Step{{Kind: rule.StepCall, Fn: fn}},
			EC:     "immediate", CA: "immediate",
		}
	}
	return defs
}

// SharedConditionRules returns n rules triggered by modify(Stock).
// A fraction `overlap` of them share one identical condition text
// (one condition-graph node); the rest get syntactically distinct
// conditions (distinct nodes). With overlap 0 every rule has its own
// node — the "naive" per-rule evaluation baseline for experiment C4.
func SharedConditionRules(n int, overlap float64) []rule.Def {
	shared := int(float64(n) * overlap)
	defs := make([]rule.Def, n)
	for i := range defs {
		var cond string
		if i < shared {
			cond = "select s from Stock s where s.price >= 100"
		} else {
			// Distinct canonical form per rule: same semantics,
			// different constant arithmetic.
			cond = fmt.Sprintf("select s from Stock s where s.price >= 100 + %d * 0", i+1)
		}
		defs[i] = rule.Def{
			Name:      fmt.Sprintf("cond-%03d", i),
			Event:     "modify(Stock)",
			Condition: []string{cond},
			Action:    []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
			EC:        "immediate", CA: "immediate",
		}
	}
	return defs
}

// CascadeChain installs depth classes C0..C(depth) and rules so that
// creating in C(i) creates in C(i+1): one trigger cascades to the
// full depth. Returns the name of the first class.
func CascadeChain(e *core.Engine, depth int) (string, error) {
	tx := e.Begin()
	for i := 0; i <= depth; i++ {
		if err := e.DefineClass(tx, object.Class{
			Name:  fmt.Sprintf("C%d", i),
			Attrs: []object.AttrDef{{Name: "x", Kind: datum.KindInt}},
		}); err != nil {
			tx.Abort()
			return "", err
		}
	}
	if err := tx.Commit(); err != nil {
		return "", err
	}
	for i := 0; i < depth; i++ {
		if _, err := e.CreateRule(rule.Def{
			Name:  fmt.Sprintf("cascade-%d", i),
			Event: fmt.Sprintf("create(C%d)", i),
			Action: []rule.Step{{
				Kind: rule.StepCreate, Class: fmt.Sprintf("C%d", i+1),
				Attrs: map[string]string{"x": "event.new_x + 1"},
			}},
			EC: "immediate", CA: "immediate",
		}); err != nil {
			return "", err
		}
	}
	return "C0", nil
}

// NonMatchingRules installs n enabled rules on classes never touched
// by the Stock workload (experiment C5).
func NonMatchingRules(e *core.Engine, n int) error {
	tx := e.Begin()
	if err := e.DefineClass(tx, object.Class{
		Name:  "Unrelated",
		Attrs: []object.AttrDef{{Name: "x", Kind: datum.KindInt}},
	}); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := e.CreateRule(rule.Def{
			Name:   fmt.Sprintf("nomatch-%03d", i),
			Event:  "modify(Unrelated)",
			Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
			EC:     "immediate", CA: "immediate",
		}); err != nil {
			return err
		}
	}
	return nil
}

// DisabledRules installs n rules on modify(Stock), all disabled
// (experiment C10).
func DisabledRules(e *core.Engine, n int) error {
	for i := 0; i < n; i++ {
		if _, err := e.CreateRule(rule.Def{
			Name:   fmt.Sprintf("disabled-%03d", i),
			Event:  "modify(Stock)",
			Action: []rule.Step{{Kind: rule.StepCall, Fn: "noop"}},
			EC:     "immediate", CA: "immediate",
			Disabled: true,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Spin burns roughly the given number of iterations of integer work;
// used as the per-action cost in concurrency experiments (CPU-bound
// so wall-clock gains from sibling parallelism are measurable).
func Spin(iters int) int64 {
	var acc int64
	for i := 0; i < iters; i++ {
		acc = acc*1664525 + 1013904223
	}
	return acc
}

// QuoteEvent is the external event of the rule-discrimination
// workloads (experiment C22): a price quote for one symbol.
const QuoteEvent = "Quote"

// QuoteSymbol names the symbol the i-th QuoteBuyRules rule buys.
func QuoteSymbol(i int) string { return fmt.Sprintf("S%05d", i) }

// QuoteBuyRules defines QuoteEvent(sym, price) and installs n
// separate-coupled trading rules on it, the paper's "buy when the
// price reaches 50" once per symbol: rule i calls the registered
// callback fn when a quote for QuoteSymbol(i) is at or above limit.
// Both tests are on event arguments, so a quote can satisfy at most
// one of the n rules, and none below the limit. The row test reads
// the Stock class, which must hold at least one object.
func QuoteBuyRules(e *core.Engine, n int, limit float64, fn string) error {
	if err := e.DefineEvent(QuoteEvent, "sym", "price"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := e.CreateRule(rule.Def{
			Name:  fmt.Sprintf("buy-%05d", i),
			Event: "external(" + QuoteEvent + ")",
			Condition: []string{fmt.Sprintf(
				"select s from Stock s where s.price >= 0 and event.sym = '%s' and event.price >= %g",
				QuoteSymbol(i), limit)},
			Action: []rule.Step{{Kind: rule.StepCall, Fn: fn}},
			EC:     "separate", CA: "immediate",
		}); err != nil {
			return err
		}
	}
	return nil
}

// PortfolioQueries are the query shapes of the repo benchmark's
// analytic_query cycle (benchmark/analytic.go) over SeedPortfolio's
// data: three indexed, one unselective scan, two full-extent
// aggregates and a three-way hash join. Cycle lists the ten-query
// cycle as indexes into it.
var PortfolioQueries = []struct{ Name, Src string }{
	{"index_join", "select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner"},
	{"index_range", "select s.symbol as sym, s.price as p from Stock s where s.price >= event.lo and s.price < event.hi order by s.price limit 10"},
	{"agg", "select count(*) as n, sum(h.qty) as total, min(h.qty) as lo, max(h.qty) as hi from Holding h"},
	{"scan", "select h.qty from Holding h where h.qty >= event.min"},
	{"agg_filtered", "select count(*) as n, sum(h.qty) as total from Holding h where h.qty >= 0"},
	{"join3", "select h.qty, s.price, c.boost from Holding h, Stock s, Sector c where h.symbol = s.symbol and s.sector = c.name"},
}

// PortfolioCycle is the benchmark's ten-query cycle over
// PortfolioQueries.
var PortfolioCycle = []int{0, 1, 2, 0, 1, 3, 0, 1, 4, 5}

// PortfolioArgs binds the event arguments PortfolioQueries reference.
func PortfolioArgs() map[string]datum.Value {
	return map[string]datum.Value{
		"owner": datum.Str("acct0042"),
		"lo":    datum.Float(40),
		"hi":    datum.Float(45),
		"min":   datum.Int(15),
	}
}

// SeedPortfolio defines and loads the analytic_query schema at the
// benchmark's size: 16 sectors, 512 stocks (symbol and price indexed)
// and 10 000 holdings (owner indexed) of 5 000 owners.
func SeedPortfolio(e *core.Engine) error {
	tx := e.Begin()
	for _, cls := range []object.Class{
		{Name: "Stock", Attrs: []object.AttrDef{
			{Name: "symbol", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "sector", Kind: datum.KindString, Required: true},
			{Name: "price", Kind: datum.KindFloat, Indexed: true},
		}},
		{Name: "Holding", Attrs: []object.AttrDef{
			{Name: "owner", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "symbol", Kind: datum.KindString, Required: true},
			{Name: "qty", Kind: datum.KindInt, Required: true},
		}},
		{Name: "Sector", Attrs: []object.AttrDef{
			{Name: "name", Kind: datum.KindString, Required: true},
			{Name: "boost", Kind: datum.KindInt, Required: true},
		}},
	} {
		if err := e.DefineClass(tx, cls); err != nil {
			tx.Abort()
			return err
		}
	}
	var err error
	create := func(class string, attrs map[string]datum.Value) {
		if err == nil {
			_, err = e.Create(tx, class, attrs)
		}
	}
	for i := 0; i < 16; i++ {
		create("Sector", map[string]datum.Value{
			"name": datum.Str(fmt.Sprintf("sector%02d", i)), "boost": datum.Int(int64(i))})
	}
	for i := 0; i < 512; i++ {
		create("Stock", map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("S%04d", i)),
			"sector": datum.Str(fmt.Sprintf("sector%02d", i%16)),
			"price":  datum.Float(float64(10 + i%90))})
	}
	for i := 0; i < 10_000; i++ {
		create("Holding", map[string]datum.Value{
			"owner":  datum.Str(fmt.Sprintf("acct%04d", i%5000)),
			"symbol": datum.Str(fmt.Sprintf("S%04d", i%512)),
			"qty":    datum.Int(int64(1000 + i%100))})
	}
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
