// Package event implements the HiPAC event model (§2.1 of the paper):
// primitive events — database operations, temporal events (absolute,
// relative, periodic), and application-defined external events — and
// composite events built from them with disjunction and sequence
// operators (plus conjunction, an extension flagged as such). It also
// implements the event detectors of §5.3, which the Rule Manager
// programs when rules are created.
package event

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

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

// Spec describes an event that can trigger rules. Specs are values;
// they are stored in rule objects and shipped over IPC, so every
// implementation is JSON-serializable via MarshalSpec/UnmarshalSpec
// and has a canonical String form parseable by Parse.
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
// conjunction is implemented as a documented extension.
const (
	Disjunction CompOp = "or"
	Sequence    CompOp = "seq"
	Conjunction CompOp = "and"
)

// Composite combines sub-events. Disjunction signals when any part
// signals; Sequence when the parts signal in order; Conjunction when
// all parts have signalled in any order. Bindings of the constituent
// signals are merged, later parts winning name collisions; a fresh
// first part restarts a sequence.
type Composite struct {
	Op    CompOp
	Parts []Spec
}

func (Composite) isSpec() {}

// String renders e.g. `seq(modify(Stock), external(TradeExecuted))`.
func (c Composite) String() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s(%s)", c.Op, strings.Join(parts, ", "))
}

// --- CEP operators (composite-event runtime extensions) ---
//
// The operators below extend the paper's disjunction/sequence algebra
// along the axes of the Reaction RuleML event-processing space:
// sequence-within-duration, interval relations, count windows, and
// windowed aggregation. Like or/seq/and they are kinds of the one
// composite-event runtime (internal/cep); unlike them they take a
// correlation clause, detected by one NFA instance per key.

// Correl names a CEP operator's correlation: constituent occurrences
// are partitioned by the value bound to Attr (occurrences without it
// are ignored), and firings bind that value to Var. The zero Correl
// means uncorrelated — one global automaton instance.
type Correl struct {
	Attr string
	Var  string
}

// clause renders " where attr=$var", or "" for the zero Correl.
func (c Correl) clause() string {
	if c.Attr == "" {
		return ""
	}
	return fmt.Sprintf(" where %s=$%s", c.Attr, c.Var)
}

// Within is sequence-within-duration: the parts must occur in order,
// all within Window of the first part's occurrence.
type Within struct {
	Parts  []Spec
	Window time.Duration
	Correl Correl
}

func (Within) isSpec() {}

// String renders e.g. `within(external(A), external(B), 5s)` or
// `within(external(A), external(B), 5s where ticker=$t)`.
func (w Within) String() string {
	parts := make([]string, len(w.Parts))
	for i, p := range w.Parts {
		parts[i] = p.String()
	}
	return fmt.Sprintf("within(%s, %s%s)", strings.Join(parts, ", "), w.Window, w.Correl.clause())
}

// During is the interval relation A during B: Event must occur inside
// the interval delimited by a Start occurrence and the next End
// occurrence. It fires once per interval containing at least one
// Event, at the End occurrence.
type During struct {
	Event  Spec
	Start  Spec
	End    Spec
	Correl Correl
}

func (During) isSpec() {}

// String renders e.g. `during(external(A), external(S), external(E))`.
func (d During) String() string {
	return fmt.Sprintf("during(%s, %s, %s%s)", d.Event, d.Start, d.End, d.Correl.clause())
}

// WindowMode distinguishes the two count-window forms.
type WindowMode string

// Count-window modes.
const (
	Sliding  WindowMode = "sliding"  // fires on every occurrence once the window is full
	Tumbling WindowMode = "tumbling" // fires on every Count-th occurrence, then resets
)

// Window is a count window over occurrences of Part.
type Window struct {
	Mode   WindowMode
	Part   Spec
	Count  int
	Correl Correl
}

func (Window) isSpec() {}

// String renders e.g. `sliding(external(A), 5)` or
// `tumbling(modify(Stock), 100 where symbol=$s)`.
func (w Window) String() string {
	return fmt.Sprintf("%s(%s, %d%s)", w.Mode, w.Part, w.Count, w.Correl.clause())
}

// Aggregate is a windowed count aggregate: it fires when at least Min
// occurrences of Part fall within the trailing Window, consuming them
// (one qualifying burst fires exactly once).
type Aggregate struct {
	Part   Spec
	Correl Correl
	Min    int
	Window time.Duration
}

func (Aggregate) isSpec() {}

// String renders e.g.
// `count(external(PriceDrop) where ticker=$t) >= 10 within 1m0s`.
func (a Aggregate) String() string {
	return fmt.Sprintf("count(%s%s) >= %d within %s", a.Part, a.Correl.clause(), a.Min, a.Window)
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

// --- JSON encoding of specs (tagged union) ---

type specJSON struct {
	Type     string            `json:"type"`
	Op       string            `json:"op,omitempty"`
	Class    string            `json:"class,omitempty"`
	Kind     string            `json:"kind,omitempty"`
	At       int64             `json:"at,omitempty"` // UnixNano
	HasAt    bool              `json:"hasAt,omitempty"`
	Offset   int64             `json:"offset,omitempty"`
	Period   int64             `json:"period,omitempty"`
	Baseline json.RawMessage   `json:"baseline,omitempty"`
	Name     string            `json:"name,omitempty"`
	CompOp   string            `json:"compOp,omitempty"`
	Parts    []json.RawMessage `json:"parts,omitempty"`

	// CEP operator fields.
	Window int64  `json:"window,omitempty"` // duration in ns
	Count  int    `json:"count,omitempty"`
	Mode   string `json:"mode,omitempty"`
	Attr   string `json:"attr,omitempty"` // correlation attribute
	Var    string `json:"var,omitempty"`  // correlation variable
}

// marshalParts encodes a list of sub-specs.
func marshalParts(parts ...Spec) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, len(parts))
	for _, p := range parts {
		raw, err := MarshalSpec(p)
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}

// MarshalSpec encodes a spec to JSON.
func MarshalSpec(s Spec) ([]byte, error) {
	switch v := s.(type) {
	case Database:
		return json.Marshal(specJSON{Type: "db", Op: string(v.Op), Class: v.Class})
	case Temporal:
		sj := specJSON{Type: "temporal", Kind: string(v.Kind),
			Offset: int64(v.Offset), Period: int64(v.Period)}
		if v.Kind == Absolute {
			// Absolute instants round-trip as UnixNano; the zero At is
			// not meaningful for the other kinds.
			sj.At = v.At.UnixNano()
			sj.HasAt = true
		}
		if v.Baseline != nil {
			raw, err := MarshalSpec(v.Baseline)
			if err != nil {
				return nil, err
			}
			sj.Baseline = raw
		}
		return json.Marshal(sj)
	case External:
		return json.Marshal(specJSON{Type: "external", Name: v.Name})
	case Composite:
		sj := specJSON{Type: "composite", CompOp: string(v.Op)}
		for _, p := range v.Parts {
			raw, err := MarshalSpec(p)
			if err != nil {
				return nil, err
			}
			sj.Parts = append(sj.Parts, raw)
		}
		return json.Marshal(sj)
	case Within:
		parts, err := marshalParts(v.Parts...)
		if err != nil {
			return nil, err
		}
		return json.Marshal(specJSON{Type: "within", Parts: parts,
			Window: int64(v.Window), Attr: v.Correl.Attr, Var: v.Correl.Var})
	case During:
		parts, err := marshalParts(v.Event, v.Start, v.End)
		if err != nil {
			return nil, err
		}
		return json.Marshal(specJSON{Type: "during", Parts: parts,
			Attr: v.Correl.Attr, Var: v.Correl.Var})
	case Window:
		parts, err := marshalParts(v.Part)
		if err != nil {
			return nil, err
		}
		return json.Marshal(specJSON{Type: "window", Parts: parts,
			Mode: string(v.Mode), Count: v.Count, Attr: v.Correl.Attr, Var: v.Correl.Var})
	case Aggregate:
		parts, err := marshalParts(v.Part)
		if err != nil {
			return nil, err
		}
		return json.Marshal(specJSON{Type: "aggregate", Parts: parts,
			Count: v.Min, Window: int64(v.Window), Attr: v.Correl.Attr, Var: v.Correl.Var})
	case nil:
		return []byte("null"), nil
	default:
		return nil, fmt.Errorf("event: cannot marshal spec of type %T", s)
	}
}

// unmarshalParts decodes a tagged union's part list, requiring
// exactly want parts when want >= 0.
func unmarshalParts(sj specJSON, want int) ([]Spec, error) {
	if want >= 0 && len(sj.Parts) != want {
		return nil, fmt.Errorf("event: spec type %q wants %d parts, got %d", sj.Type, want, len(sj.Parts))
	}
	out := make([]Spec, 0, len(sj.Parts))
	for _, raw := range sj.Parts {
		p, err := UnmarshalSpec(raw)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("event: spec type %q has a null part", sj.Type)
		}
		out = append(out, p)
	}
	return out, nil
}

// UnmarshalSpec decodes a spec written by MarshalSpec.
func UnmarshalSpec(b []byte) (Spec, error) {
	if string(b) == "null" || len(b) == 0 {
		return nil, nil
	}
	var sj specJSON
	if err := json.Unmarshal(b, &sj); err != nil {
		return nil, fmt.Errorf("event: bad spec json: %w", err)
	}
	switch sj.Type {
	case "db":
		return Database{Op: Op(sj.Op), Class: sj.Class}, nil
	case "temporal":
		t := Temporal{Kind: TemporalKind(sj.Kind), Offset: time.Duration(sj.Offset),
			Period: time.Duration(sj.Period)}
		if sj.HasAt {
			t.At = time.Unix(0, sj.At)
		}
		if len(sj.Baseline) > 0 {
			base, err := UnmarshalSpec(sj.Baseline)
			if err != nil {
				return nil, err
			}
			t.Baseline = base
		}
		return t, nil
	case "external":
		return External{Name: sj.Name}, nil
	case "composite":
		c := Composite{Op: CompOp(sj.CompOp)}
		for _, raw := range sj.Parts {
			p, err := UnmarshalSpec(raw)
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, p)
		}
		return c, nil
	case "within":
		parts, err := unmarshalParts(sj, -1)
		if err != nil {
			return nil, err
		}
		return Within{Parts: parts, Window: time.Duration(sj.Window),
			Correl: Correl{Attr: sj.Attr, Var: sj.Var}}, nil
	case "during":
		parts, err := unmarshalParts(sj, 3)
		if err != nil {
			return nil, err
		}
		return During{Event: parts[0], Start: parts[1], End: parts[2],
			Correl: Correl{Attr: sj.Attr, Var: sj.Var}}, nil
	case "window":
		parts, err := unmarshalParts(sj, 1)
		if err != nil {
			return nil, err
		}
		return Window{Mode: WindowMode(sj.Mode), Part: parts[0], Count: sj.Count,
			Correl: Correl{Attr: sj.Attr, Var: sj.Var}}, nil
	case "aggregate":
		parts, err := unmarshalParts(sj, 1)
		if err != nil {
			return nil, err
		}
		return Aggregate{Part: parts[0], Min: sj.Count, Window: time.Duration(sj.Window),
			Correl: Correl{Attr: sj.Attr, Var: sj.Var}}, nil
	default:
		return nil, fmt.Errorf("event: unknown spec type %q", sj.Type)
	}
}
