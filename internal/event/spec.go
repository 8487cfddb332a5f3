// Package event implements the HiPAC event model (§2.1 of the paper):
// primitive events — database operations, temporal events (absolute,
// relative, periodic), and application-defined external events — and
// composite events built from them. A composite is one type,
// Composite, whose operator (the paper's disjunction and sequence,
// plus conjunction and the windowed extensions) is a row of one
// operator table, compOps. It also implements the event detectors of
// §5.3, which the Rule Manager programs when rules are created.
package event

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cep"
	"repro/internal/datum"
	"repro/internal/lock"
)

// Op is a database operation type, the subject of database events.
// The paper groups these as data definition, data manipulation, and
// transaction control.
type Op string

// Database operation types.
const (
	OpAny         Op = ""            // wildcard in specifications
	OpCreate      Op = "create"      // DML: object creation
	OpModify      Op = "modify"      // DML: attribute update
	OpDelete      Op = "delete"      // DML: object deletion
	OpDefineClass Op = "defineClass" // DDL
	OpDropClass   Op = "dropClass"   // DDL
	OpCommit      Op = "commit"      // transaction control
	OpAbort       Op = "abort"       // transaction control
)

// Spec describes an event that can trigger rules. Specs are values
// with a canonical String form that Parse reads back: rule objects
// persist that text, and rules whose specs print alike share one
// detector subscription.
type Spec interface {
	// String renders the spec in the canonical text syntax.
	String() string
	isSpec()
}

// Database matches database operations. A zero Op matches any
// operation; an empty Class matches any class.
type Database struct {
	Op    Op
	Class string
}

func (Database) isSpec() {}

// String renders e.g. `modify(Stock)`, `create(*)`, `commit()`.
func (d Database) String() string {
	op := string(d.Op)
	if op == "" {
		op = "anyop"
	}
	switch d.Op {
	case OpCommit, OpAbort:
		return op + "()"
	}
	cls := d.Class
	if cls == "" {
		cls = "*"
	}
	return fmt.Sprintf("%s(%s)", op, cls)
}

// TemporalKind distinguishes the three temporal event forms of §2.1.
type TemporalKind string

// Temporal event kinds.
const (
	Absolute TemporalKind = "absolute"
	Relative TemporalKind = "relative"
	Periodic TemporalKind = "periodic"
)

// Temporal matches instants in time. Absolute fires once at At.
// Relative fires once, Offset after its baseline (the moment the
// detector is programmed when Baseline is nil, else each baseline
// event occurrence). Periodic fires every Period after its baseline.
type Temporal struct {
	Kind     TemporalKind
	At       time.Time     // Absolute only
	Offset   time.Duration // Relative only
	Period   time.Duration // Periodic only
	Baseline Spec          // Relative/Periodic; nil = detector programming time
}

func (Temporal) isSpec() {}

// String renders e.g. `at(2026-07-06T09:30:00Z)`, `after(5s)`,
// `after(commit(), 5s)`, `every(1m)`.
func (t Temporal) String() string {
	switch t.Kind {
	case Absolute:
		return fmt.Sprintf("at(%s)", t.At.UTC().Format(time.RFC3339Nano))
	case Relative:
		if t.Baseline != nil {
			return fmt.Sprintf("after(%s, %s)", t.Baseline, t.Offset)
		}
		return fmt.Sprintf("after(%s)", t.Offset)
	case Periodic:
		if t.Baseline != nil {
			return fmt.Sprintf("every(%s, %s)", t.Baseline, t.Period)
		}
		return fmt.Sprintf("every(%s)", t.Period)
	default:
		return fmt.Sprintf("temporal(%s)", t.Kind)
	}
}

// External matches application-defined events signalled by name
// (§2.1 item 3; §4.1 "define" and "signal" operations).
type External struct {
	Name string
}

func (External) isSpec() {}

// String renders `external(Name)`.
func (e External) String() string { return fmt.Sprintf("external(%s)", e.Name) }

// CompOp is a composite event operator.
type CompOp string

// Composite operators. The paper specifies disjunction and sequence;
// conjunction and the rest are extensions along the axes of the
// Reaction RuleML event-processing space (sequence within a duration,
// interval relations, count windows and windowed aggregation).
const (
	Disjunction    CompOp = "or"       // any part occurs
	Sequence       CompOp = "seq"      // the parts occur in order; a fresh first part restarts
	Conjunction    CompOp = "and"      // every part occurs, in any order
	TimedSequence  CompOp = "within"   // the parts occur in order, all within Window of the first
	Interval       CompOp = "during"   // Parts[0] occurs between a Parts[1] and the next Parts[2]; fires at that end
	Sliding        CompOp = "sliding"  // fires on every occurrence once Count are in the window
	Tumbling       CompOp = "tumbling" // fires on every Count-th occurrence, then resets
	CountAggregate CompOp = "count"    // fires when Count occurrences fall within the trailing Window, consuming them
)

// form is the way an operator's spec is written.
type form int

const (
	formList  form = iota // op(p1, ..., pn[ where a=$v])
	formArg               // op(p1, ..., pn, arg[ where a=$v]): arg is the Window if the operator takes one, else the Count
	formCount             // count(p[ where a=$v]) >= Count within Window
)

// opDef is one operator's row in compOps.
type opDef struct {
	kind          cep.Kind
	form          form
	min, max      int  // bounds on len(Parts); max 0 means unbounded
	window, count bool // the operator takes a positive Window, a Count in [1, maxWindowCount]
	correl        bool // the operator takes a where clause, and bare names as parts
	maxPartials   int  // cep.Config.MaxPartials
}

// compOps is the operator table: it drives Composite's String, its
// validation, the parser's argument forms, and the cep.Config that
// Define builds. A sequence is a within with no window whose fresh
// first part restarts it.
var compOps = map[CompOp]opDef{
	Disjunction:    {kind: cep.KAny, min: 2},
	Sequence:       {kind: cep.KWithin, min: 2, maxPartials: 1},
	Conjunction:    {kind: cep.KAll, min: 2},
	TimedSequence:  {kind: cep.KWithin, form: formArg, min: 2, window: true, correl: true},
	Interval:       {kind: cep.KDuring, min: 3, max: 3, correl: true},
	Sliding:        {kind: cep.KSliding, form: formArg, min: 1, max: 1, count: true, correl: true},
	Tumbling:       {kind: cep.KTumbling, form: formArg, min: 1, max: 1, count: true, correl: true},
	CountAggregate: {kind: cep.KAggregate, form: formCount, min: 1, max: 1, window: true, count: true, correl: true},
}

// maxWindowCount bounds count-window and aggregate thresholds so a
// malformed or hostile spec cannot demand unbounded per-instance
// state.
const maxWindowCount = 1 << 20

// Composite combines sub-events under one operator, detected by the
// one composite-event runtime (internal/cep). Bindings of the
// constituent signals are merged, later parts winning name
// collisions. Window and Count are set only for the operators whose
// compOps row takes them; Correl only for those taking a where clause.
type Composite struct {
	Op     CompOp
	Parts  []Spec
	Window time.Duration
	Count  int
	Correl Correl
}

func (Composite) isSpec() {}

// String renders e.g. `seq(modify(Stock), external(TradeExecuted))`,
// `tumbling(modify(Stock), 100 where symbol=$s)` or
// `count(external(PriceDrop) where ticker=$t) >= 10 within 1m0s`.
func (c Composite) String() string {
	def := compOps[c.Op]
	var b strings.Builder
	b.WriteString(string(c.Op))
	b.WriteByte('(')
	for i, p := range c.Parts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if def.form == formArg {
		b.WriteString(", ")
		if def.window {
			b.WriteString(c.Window.String())
		} else {
			b.WriteString(strconv.Itoa(c.Count))
		}
	}
	if c.Correl.Attr != "" {
		b.WriteString(" where ")
		b.WriteString(c.Correl.Attr)
		b.WriteString("=$")
		b.WriteString(c.Correl.Var)
	}
	b.WriteByte(')')
	if def.form == formCount {
		fmt.Fprintf(&b, " >= %d within %s", c.Count, c.Window)
	}
	return b.String()
}

// Correl names a composite's correlation: constituent occurrences
// are partitioned by the value bound to Attr (occurrences without it
// are ignored), and firings bind that value to Var. The zero Correl
// means uncorrelated — one global automaton instance.
type Correl struct {
	Attr string
	Var  string
}

// validate reports why Define would reject s, or nil. Parse runs it on
// every spec it accepts, so text that parses always defines.
func validate(s Spec) error {
	switch v := s.(type) {
	case Database:
	case External:
		if v.Name == "" {
			return fmt.Errorf("event: external event needs a name")
		}
	case Temporal:
		switch {
		case v.Kind == Relative && v.Offset < 0:
			return fmt.Errorf("event: negative relative offset")
		case v.Kind == Periodic && v.Period <= 0:
			return fmt.Errorf("event: periodic event needs a positive period")
		case v.Kind != Absolute && v.Kind != Relative && v.Kind != Periodic:
			return fmt.Errorf("event: unknown temporal kind %q", v.Kind)
		case v.Baseline != nil:
			return validate(v.Baseline)
		}
	case Composite:
		def, ok := compOps[v.Op]
		switch n := len(v.Parts); {
		case !ok:
			return fmt.Errorf("event: unknown composite operator %q", v.Op)
		case n < def.min:
			return fmt.Errorf("event: %s() needs at least %d parts, got %d", v.Op, def.min, n)
		case def.max > 0 && n > def.max:
			return fmt.Errorf("event: %s() takes at most %d parts, got %d", v.Op, def.max, n)
		case def.window && v.Window <= 0:
			return fmt.Errorf("event: %s() needs a positive window", v.Op)
		case !def.window && v.Window != 0:
			return fmt.Errorf("event: %s() takes no window", v.Op)
		case def.count && (v.Count < 1 || v.Count > maxWindowCount):
			return fmt.Errorf("event: %s(): count must be in [1, %d], got %d", v.Op, maxWindowCount, v.Count)
		case !def.count && v.Count != 0:
			return fmt.Errorf("event: %s() takes no count", v.Op)
		case v.Correl != (Correl{}) && !def.correl:
			return fmt.Errorf("event: %s() takes no where clause", v.Op)
		case v.Correl != (Correl{}) && (v.Correl.Attr == "" || v.Correl.Var == ""):
			return fmt.Errorf("event: %s(): a where clause needs an attribute and a variable", v.Op)
		}
		for _, p := range v.Parts {
			if err := validate(p); err != nil {
				return err
			}
		}
	case nil:
		return fmt.Errorf("event: nil spec")
	default:
		return fmt.Errorf("event: unsupported spec type %T", s)
	}
	return nil
}

// Signal is an event occurrence: which spec matched, when, in which
// transaction (0 when outside any transaction, e.g. temporal events),
// and the argument bindings carried to conditions and actions.
//
// Binding name conventions for database events: "op", "class", "oid",
// and "old_<attr>" / "new_<attr>" for modified attributes. External
// events carry their declared parameters. Temporal events carry
// "time" and, for periodic events, "count".
type Signal struct {
	Spec     Spec
	Time     time.Time
	Txn      lock.TxnID
	Bindings map[string]datum.Value
}
