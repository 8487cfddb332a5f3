// Package rule implements the HiPAC Rule Manager (§5.4 and §6 of the
// paper): rules as first-class database objects, the mapping from
// events to rules, and the scheduling of condition evaluation and
// action execution according to the rules' coupling modes, in nested
// transactions.
//
// Rules are stored in the system class "__rule", so they have OIDs,
// are durable, and are subject to transaction semantics: firing a
// rule takes a read lock on the rule object; create, modify, delete,
// enable, and disable take write locks (§2.2).
//
// Every firing starts in firing.go, the only file of the package with a
// go statement: nested firings through fireGroup, detached ones through
// one runner, detach. A firing's open span lives on its transaction
// record (txn.Txn.Span), where cascades raised in it find their parent.
package rule

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cond"
	"repro/internal/datum"
	"repro/internal/event"
	"repro/internal/lock"
	"repro/internal/query"
)

// Coupling is a coupling mode (§2.1): the transactional relationship
// between event and condition (E-C) or condition and action (C-A).
type Coupling int

// Coupling modes.
const (
	// Immediate: evaluate/execute at the point of the trigger, in a
	// subtransaction of the triggering transaction, which is
	// suspended meanwhile.
	Immediate Coupling = iota
	// Deferred: in a subtransaction of the triggering transaction,
	// but at its commit point.
	Deferred
	// Separate: in a new top-level transaction, concurrent with the
	// triggering transaction.
	Separate
)

// String names the coupling mode.
func (c Coupling) String() string {
	switch c {
	case Immediate:
		return "immediate"
	case Deferred:
		return "deferred"
	case Separate:
		return "separate"
	default:
		return fmt.Sprintf("coupling(%d)", int(c))
	}
}

// ParseCoupling reads a coupling-mode name.
func ParseCoupling(s string) (Coupling, error) {
	switch s {
	case "immediate", "":
		return Immediate, nil
	case "deferred":
		return Deferred, nil
	case "separate":
		return Separate, nil
	default:
		return 0, fmt.Errorf("rule: unknown coupling mode %q", s)
	}
}

// StepKind identifies an action step's operation.
type StepKind string

// Action step kinds. Database operations and requests to application
// programs, per §2.1 ("The action is a sequence of operations. These
// can be database operations or external requests to application
// programs"), plus event signalling, registered Go callbacks, and an
// explicit abort for constraint enforcement.
const (
	StepCreate  StepKind = "create"  // create an object
	StepModify  StepKind = "modify"  // modify an object
	StepDelete  StepKind = "delete"  // delete an object
	StepSignal  StepKind = "signal"  // signal an external event
	StepRequest StepKind = "request" // request to an application program
	StepCall    StepKind = "call"    // invoke a registered Go callback
	StepAbort   StepKind = "abort"   // abort the firing (and its trigger)
)

// Step is one declarative action step. Attribute and argument values
// are expressions over the event bindings (event.x) and the
// condition's primary-result columns (bare names).
type Step struct {
	Kind   StepKind          `json:"kind"`
	Class  string            `json:"class,omitempty"`  // create
	Target string            `json:"target,omitempty"` // modify/delete: expression yielding an OID
	Attrs  map[string]string `json:"attrs,omitempty"`  // create/modify
	Event  string            `json:"event,omitempty"`  // signal: external event name
	Op     string            `json:"op,omitempty"`     // request: application operation
	Args   map[string]string `json:"args,omitempty"`   // signal/request/call arguments
	Fn     string            `json:"fn,omitempty"`     // call: registered callback name
}

// Def is the user-facing definition of a rule.
type Def struct {
	Name string `json:"name"`
	// Event is the triggering event in the canonical text syntax.
	// Empty means: derive the event from the condition's footprint
	// (§2.1 "the event specification can also be omitted").
	Event string `json:"event,omitempty"`
	// Condition is a collection of queries; all must be non-empty for
	// the condition to be satisfied. Empty means always satisfied.
	// The first query is primary: the action runs once per row of its
	// result.
	Condition []string `json:"condition,omitempty"`
	Action    []Step   `json:"action"`
	// EC and CA are the coupling modes ("immediate", "deferred",
	// "separate"); empty means immediate.
	EC string `json:"ec,omitempty"`
	CA string `json:"ca,omitempty"`
	// Disabled creates the rule without enabling automatic firing.
	Disabled bool `json:"disabled,omitempty"`
}

// Rule is a compiled, registered rule.
type Rule struct {
	OID       datum.OID
	Name      string
	Spec      event.Spec // the (possibly derived) event specification
	Derived   bool       // Spec was derived from the condition
	Condition cond.Condition
	Steps     []compiledStep
	EC, CA    Coupling
	Enabled   bool

	def  Def // original definition, for persistence and display
	sub  event.SubID
	item lock.Item // the rule object's lock item, set at registration

	// guards are the condition's event-only conjuncts and access is
	// where the dispatch table files the rule under them; both are set
	// at registration and immutable afterwards.
	guards []query.Guard
	access access

	fired atomic.Uint64 // action executions
}

// Definition returns the rule's original definition.
func (r *Rule) Definition() Def { return r.def }

// EventString returns the canonical text of the (possibly derived)
// event specification.
func (r *Rule) EventString() string {
	if r.Spec == nil {
		return ""
	}
	return r.Spec.String()
}

type compiledStep struct {
	kind   StepKind
	class  string
	target query.ActionExpr
	attrs  map[string]query.ActionExpr
	event  string
	op     string
	args   map[string]query.ActionExpr
	fn     string
}

// compile parses a definition into a Rule (without registering it).
func compile(def Def) (*Rule, error) {
	if def.Name == "" {
		return nil, errors.New("rule: rule needs a name")
	}
	r := &Rule{Name: def.Name, def: def, Enabled: !def.Disabled}
	var err error
	if r.EC, err = ParseCoupling(def.EC); err != nil {
		return nil, err
	}
	if r.CA, err = ParseCoupling(def.CA); err != nil {
		return nil, err
	}
	if r.Condition, err = cond.ParseCondition(def.Condition); err != nil {
		return nil, fmt.Errorf("rule %q: %w", def.Name, err)
	}
	if def.Event != "" {
		if r.Spec, err = event.Parse(def.Event); err != nil {
			return nil, fmt.Errorf("rule %q: %w", def.Name, err)
		}
	} else {
		r.Spec, err = deriveSpec(r.Condition)
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", def.Name, err)
		}
		r.Derived = true
	}
	for i, s := range def.Action {
		cs, err := compileStep(s)
		if err != nil {
			return nil, fmt.Errorf("rule %q action step %d: %w", def.Name, i+1, err)
		}
		r.Steps = append(r.Steps, cs)
	}
	return r, nil
}

// deriveSpec builds the event specification from the condition's
// footprint: any data operation on any class the condition reads
// (§2.1).
func deriveSpec(c cond.Condition) (event.Spec, error) {
	fp := c.Footprint()
	if len(fp.Classes) == 0 {
		return nil, errors.New("cannot derive an event from an empty condition; specify one")
	}
	var classes []string
	for cls := range fp.Classes {
		classes = append(classes, cls)
	}
	// Deterministic order for stable round-trips.
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	if len(classes) == 1 {
		return event.Database{Op: event.OpAny, Class: classes[0]}, nil
	}
	comp := event.Composite{Op: event.Disjunction}
	for _, cls := range classes {
		comp.Parts = append(comp.Parts, event.Database{Op: event.OpAny, Class: cls})
	}
	return comp, nil
}

func compileStep(s Step) (compiledStep, error) {
	cs := compiledStep{kind: s.Kind, class: s.Class, event: s.Event, op: s.Op, fn: s.Fn}
	var err error
	switch s.Kind {
	case StepCreate:
		if s.Class == "" {
			return cs, errors.New("create step needs a class")
		}
	case StepModify, StepDelete:
		if s.Target == "" {
			return cs, fmt.Errorf("%s step needs a target expression", s.Kind)
		}
		if cs.target, err = compileExpr(s.Target); err != nil {
			return cs, fmt.Errorf("target: %w", err)
		}
	case StepSignal:
		if s.Event == "" {
			return cs, errors.New("signal step needs an event name")
		}
	case StepRequest:
		if s.Op == "" {
			return cs, errors.New("request step needs an operation name")
		}
	case StepCall:
		if s.Fn == "" {
			return cs, errors.New("call step needs a callback name")
		}
	case StepAbort:
	default:
		return cs, fmt.Errorf("unknown step kind %q", s.Kind)
	}
	if len(s.Attrs) > 0 {
		cs.attrs = map[string]query.ActionExpr{}
		for k, src := range s.Attrs {
			if cs.attrs[k], err = compileExpr(src); err != nil {
				return cs, fmt.Errorf("attribute %q: %w", k, err)
			}
		}
	}
	if len(s.Args) > 0 {
		cs.args = map[string]query.ActionExpr{}
		for k, src := range s.Args {
			if cs.args[k], err = compileExpr(src); err != nil {
				return cs, fmt.Errorf("argument %q: %w", k, err)
			}
		}
	}
	return cs, nil
}

// compileExpr parses and compiles one expression of an action step.
func compileExpr(src string) (query.ActionExpr, error) {
	x, err := query.ParseExpr(src)
	if err != nil {
		return query.ActionExpr{}, err
	}
	return query.CompileExpr(x), nil
}

// encodeDef serializes a definition for the "__rule" object.
func encodeDef(def Def, enabled bool) (map[string]datum.Value, error) {
	raw, err := json.Marshal(def)
	if err != nil {
		return nil, fmt.Errorf("rule: encode: %w", err)
	}
	return map[string]datum.Value{
		"name":    datum.Str(def.Name),
		"def":     datum.Str(string(raw)),
		"enabled": datum.Bool(enabled),
	}, nil
}

func decodeDef(attrs map[string]datum.Value) (Def, bool, error) {
	var def Def
	if err := json.Unmarshal([]byte(attrs["def"].AsString()), &def); err != nil {
		return Def{}, false, fmt.Errorf("rule: decode: %w", err)
	}
	return def, attrs["enabled"].AsBool(), nil
}

// AbortRequested is returned through the firing machinery when an
// action executes an abort step; it makes the triggering operation
// fail so the application (or the commit hook) aborts the triggering
// transaction — the standard constraint-enforcement pattern.
var AbortRequested = errors.New("rule: action requested abort")

// evalExprs evaluates a map of compiled expressions against the
// bindings.
func evalExprs(exprs map[string]query.ActionExpr, reader query.Reader,
	vars, eventArgs map[string]datum.Value) (map[string]datum.Value, error) {
	out := make(map[string]datum.Value, len(exprs))
	for k, e := range exprs {
		v, err := e.Eval(reader, vars, eventArgs)
		if err != nil {
			return nil, fmt.Errorf("expression for %q: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// RuleClass is the system class holding rule objects.
const RuleClass = "__rule"
