// Package workload builds the synthetic schemas, data, and rule sets
// used by the benchmark harness (bench_test.go and cmd/hipac-bench)
// to regenerate the experiments in DESIGN.md's per-experiment index.
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
