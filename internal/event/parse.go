package event

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Parse reads an event specification in the canonical text syntax:
//
//	create(Stock)           database create on class Stock
//	modify(Stock)           database modify
//	delete(*)               database delete on any class
//	anyop(Stock)            any operation on Stock
//	defineClass(*)          DDL
//	commit()  abort()       transaction control
//	external(TradeDone)     application-defined event
//	at(2026-07-06T09:30:00Z)           absolute temporal
//	after(5s)  after(commit(), 5s)     relative temporal
//	every(1m)  every(external(X), 1m)  periodic temporal
//	or(e1, e2, ...)         disjunction
//	seq(e1, e2, ...)        sequence
//	and(e1, e2, ...)        conjunction (extension)
//
// and the windowed extensions, which take an optional trailing `where
// attr=$var` correlation clause that partitions detection by the named
// binding and exposes its value to conditions/actions as $var:
//
//	within(e1, e2, ..., 5s)              sequence within a duration
//	during(ev, start, end)               interval relation
//	sliding(e, 5)                        sliding count window
//	tumbling(e, 5)                       tumbling count window
//	count(e where a=$v) >= 10 within 1m  windowed count aggregate
//
// Every composite form parses to one Composite; its operator's row in
// compOps gives its written form — op(parts), op(parts, arg) or
// count(part) >= N within d — and the arguments it takes. Inside the windowed forms a bare
// identifier is shorthand for an external event: count(PriceDrop ...)
// means count(external(PriceDrop) ...), and likewise within(PriceDrop,
// Confirm, 30s) etc.
//
// Parse rejects exactly the specs Detectors.Define rejects: both run
// the same validation, so an event that parses can always be defined.
func Parse(input string) (Spec, error) {
	p := &specParser{src: input}
	spec, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("event: trailing input at %d: %q", p.pos, p.src[p.pos:])
	}
	if err := validate(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(input string) Spec {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

type specParser struct {
	src string
	pos int
}

func (p *specParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *specParser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || unicode.IsLetter(rune(c)) || (p.pos > start && unicode.IsDigit(rune(c))) {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *specParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return fmt.Errorf("event: expected %q at %d in %q", string(c), p.pos, p.src)
	}
	p.pos++
	return nil
}

// argText reads raw text up to the next top-level ',' or ')'.
func (p *specParser) argText() string {
	p.skipSpace()
	depth := 0
	start := p.pos
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '(':
			depth++
		case ')':
			if depth == 0 {
				return strings.TrimSpace(p.src[start:p.pos])
			}
			depth--
		case ',':
			if depth == 0 {
				return strings.TrimSpace(p.src[start:p.pos])
			}
		}
		p.pos++
	}
	return strings.TrimSpace(p.src[start:p.pos])
}

func (p *specParser) parseSpec() (Spec, error) {
	p.skipSpace()
	name := p.ident()
	if name == "" {
		return nil, fmt.Errorf("event: expected event name at %d in %q", p.pos, p.src)
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	switch name {
	case "create", "modify", "delete", "defineClass", "dropClass", "anyop":
		cls := p.argText()
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if cls == "*" {
			cls = ""
		}
		op := Op(name)
		if name == "anyop" {
			op = OpAny
		}
		return Database{Op: op, Class: cls}, nil

	case "commit", "abort":
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return Database{Op: Op(name)}, nil

	case "external":
		n := p.argText()
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if n == "" {
			return nil, fmt.Errorf("event: external() needs a name")
		}
		return External{Name: n}, nil

	case "at":
		txt := p.argText()
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		at, err := time.Parse(time.RFC3339Nano, txt)
		if err != nil {
			at, err = time.Parse(time.RFC3339, txt)
		}
		if err != nil {
			return nil, fmt.Errorf("event: at(): bad time %q: %w", txt, err)
		}
		return Temporal{Kind: Absolute, At: at}, nil

	case "after", "every":
		// One arg: duration. Two args: baseline spec, duration.
		save := p.pos
		var baseline Spec
		txt := p.argText()
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			// Two-arg form: re-parse the first arg as a spec.
			p.pos = save
			base, err := p.parseSpec()
			if err != nil {
				return nil, fmt.Errorf("event: %s(): baseline: %w", name, err)
			}
			baseline = base
			if err := p.expect(','); err != nil {
				return nil, err
			}
			txt = p.argText()
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(txt)
		if err != nil {
			return nil, fmt.Errorf("event: %s(): bad duration %q: %w", name, txt, err)
		}
		if name == "after" {
			return Temporal{Kind: Relative, Offset: d, Baseline: baseline}, nil
		}
		return Temporal{Kind: Periodic, Period: d, Baseline: baseline}, nil

	default:
		if def, ok := compOps[CompOp(name)]; ok {
			return p.composite(CompOp(name), def)
		}
		return nil, fmt.Errorf("event: unknown event form %q", name)
	}
}

// composite parses an operator's arguments, after its '(', in the
// form its compOps row gives. Parse validates the result.
func (p *specParser) composite(op CompOp, def opDef) (Spec, error) {
	c := Composite{Op: op}
	for {
		save := p.pos
		part, err := p.parsePart(def.correl)
		if err != nil {
			if def.form != formArg || len(c.Parts) == 0 {
				return nil, err
			}
			// Not a part: the trailing argument starts here.
			p.pos = save
			if def.window {
				c.Window, err = p.duration(string(op))
			} else {
				c.Count, err = p.integer(string(op))
			}
			if err != nil {
				return nil, err
			}
			break
		}
		c.Parts = append(c.Parts, part)
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		if def.form == formArg {
			return nil, fmt.Errorf("event: %s(): expected ',' and an argument at %d in %q", op, p.pos, p.src)
		}
		break
	}
	var err error
	if c.Correl, err = p.parseOptWhere(); err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if def.form != formCount {
		return c, nil
	}
	// count(e [where attr=$var]) >= N within D
	if err := p.expect('>'); err != nil {
		return nil, err
	}
	if err := p.expect('='); err != nil {
		return nil, err
	}
	if c.Count, err = p.integer("count"); err != nil {
		return nil, err
	}
	p.skipSpace()
	if kw := p.ident(); kw != "within" {
		return nil, fmt.Errorf("event: count: expected 'within' at %d in %q", p.pos, p.src)
	}
	if c.Window, err = p.duration("count"); err != nil {
		return nil, err
	}
	return c, nil
}

// token reads a bare argument token (duration or integer): raw text
// up to the next delimiter or space.
func (p *specParser) token() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ',' || c == '(' || c == ')' || c == '=' || c == '$' || unicode.IsSpace(rune(c)) {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

// duration parses a Go duration token.
func (p *specParser) duration(form string) (time.Duration, error) {
	tok := p.token()
	d, err := time.ParseDuration(tok)
	if err != nil {
		return 0, fmt.Errorf("event: %s: bad duration %q: %w", form, tok, err)
	}
	return d, nil
}

// integer parses an integer token.
func (p *specParser) integer(form string) (int, error) {
	tok := p.token()
	n, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("event: %s: bad count %q: %w", form, tok, err)
	}
	return n, nil
}

// parseOptWhere parses an optional `where attr=$var` correlation
// clause.
func (p *specParser) parseOptWhere() (Correl, error) {
	save := p.pos
	p.skipSpace()
	if p.ident() != "where" {
		p.pos = save
		return Correl{}, nil
	}
	p.skipSpace()
	attr := p.ident()
	if attr == "" {
		return Correl{}, fmt.Errorf("event: where: expected attribute name at %d in %q", p.pos, p.src)
	}
	if err := p.expect('='); err != nil {
		return Correl{}, err
	}
	if err := p.expect('$'); err != nil {
		return Correl{}, err
	}
	v := p.ident()
	if v == "" {
		return Correl{}, fmt.Errorf("event: where: expected variable name after $ at %d in %q", p.pos, p.src)
	}
	return Correl{Attr: attr, Var: v}, nil
}

// parsePart parses a composite's constituent event. Where the
// operator takes a where clause (bare is true) a bare identifier is
// external-event shorthand (`PriceDrop` for `external(PriceDrop)`); a
// bare `where` is never a part: it starts the correlation clause.
func (p *specParser) parsePart(bare bool) (Spec, error) {
	save := p.pos
	p.skipSpace()
	name := p.ident()
	p.skipSpace()
	if bare && name != "" && name != "where" && (p.pos >= len(p.src) || p.src[p.pos] != '(') {
		return External{Name: name}, nil
	}
	p.pos = save
	return p.parseSpec()
}
