package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/datum"
)

// Parse parses a select statement.
func Parse(src string) (*Query, error) {
	p := newParser(src)
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %q after end of query", p.peek().text)
	}
	return q, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseExpr parses a standalone expression (used by rule actions for
// computed attribute values).
func ParseExpr(src string) (Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %q after end of expression", p.peek().text)
	}
	return e, nil
}

// --- lexer ---

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // punctuation and operators
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type parser struct {
	src    string
	tokens []token
	idx    int
	err    error
}

func newParser(src string) *parser {
	p := &parser{src: src}
	p.lex()
	return p
}

func (p *parser) lex() {
	i := 0
	for i < len(p.src) {
		c := p.src[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			var sb strings.Builder
			for j < len(p.src) && p.src[j] != quote {
				if p.src[j] == '\\' && j+1 < len(p.src) {
					j++
				}
				sb.WriteByte(p.src[j])
				j++
			}
			if j >= len(p.src) {
				p.err = fmt.Errorf("query: unterminated string at %d", i)
				return
			}
			p.tokens = append(p.tokens, token{tokString, sb.String(), i})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(p.src) && (p.src[j] >= '0' && p.src[j] <= '9' || p.src[j] == '.') {
				j++
			}
			// Optional exponent: 1e9, 2.5E-3.
			if j < len(p.src) && (p.src[j] == 'e' || p.src[j] == 'E') {
				k := j + 1
				if k < len(p.src) && (p.src[k] == '+' || p.src[k] == '-') {
					k++
				}
				if k < len(p.src) && p.src[k] >= '0' && p.src[k] <= '9' {
					for k < len(p.src) && p.src[k] >= '0' && p.src[k] <= '9' {
						k++
					}
					j = k
				}
			}
			p.tokens = append(p.tokens, token{tokNumber, p.src[i:j], i})
			i = j
		case c == '_' || unicode.IsLetter(rune(c)):
			j := i
			for j < len(p.src) {
				cj := p.src[j]
				if cj == '_' || unicode.IsLetter(rune(cj)) || unicode.IsDigit(rune(cj)) {
					j++
					continue
				}
				break
			}
			p.tokens = append(p.tokens, token{tokIdent, p.src[i:j], i})
			i = j
		default:
			// multi-char operators first
			two := ""
			if i+1 < len(p.src) {
				two = p.src[i : i+2]
			}
			switch two {
			case "!=", "<=", ">=", "<>":
				if two == "<>" {
					two = "!="
				}
				p.tokens = append(p.tokens, token{tokOp, two, i})
				i += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '=', '<', '>', '(', ')', ',', '.':
				p.tokens = append(p.tokens, token{tokOp, string(c), i})
				i++
			default:
				p.err = fmt.Errorf("query: unexpected character %q at %d", string(c), i)
				return
			}
		}
	}
	p.tokens = append(p.tokens, token{tokEOF, "", len(p.src)})
}

func (p *parser) peek() token { return p.tokens[p.idx] }

func (p *parser) next() token {
	t := p.tokens[p.idx]
	if t.kind != tokEOF {
		p.idx++
	}
	return t
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.idx++
		return true
	}
	return false
}

// acceptKeyword matches a case-insensitive identifier keyword.
func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.idx++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %q, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %q", op, p.peek().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: %s (at offset %d in %q)",
		fmt.Sprintf(format, args...), p.peek().pos, p.src)
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.idx++
	return t.text, nil
}

var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "as": true,
	"and": true, "or": true, "not": true, "true": true, "false": true,
	"null": true, "event": true, "order": true, "by": true,
	"limit": true, "asc": true, "desc": true,
}

// --- grammar ---

func (p *parser) parseQuery() (*Query, error) {
	if p.err != nil {
		return nil, p.err
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := SelectItem{Expr: e}
		if p.acceptKeyword("as") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			item.Alias = name
		}
		q.Select = append(q.Select, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		cls, err := p.ident()
		if err != nil {
			return nil, err
		}
		if reservedWords[strings.ToLower(cls)] {
			return nil, p.errf("class name %q is reserved", cls)
		}
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		if reservedWords[strings.ToLower(v)] {
			return nil, p.errf("range variable %q is reserved", v)
		}
		q.From = append(q.From, FromClause{Class: cls, Var: v})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	q.Limit = -1
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		tok := p.peek()
		if tok.kind != tokNumber {
			return nil, p.errf("limit needs a number, found %q", tok.text)
		}
		p.idx++
		n, err := strconv.ParseInt(tok.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad limit %q", tok.text)
		}
		q.Limit = int(n)
	}
	// Sanity: select/where may only reference declared variables.
	if err := p.checkVars(q); err != nil {
		return nil, err
	}
	// Aggregate shape: if any select item aggregates, all must.
	agg := 0
	for _, s := range q.Select {
		if HasAggregate(s.Expr) {
			agg++
		}
	}
	if agg > 0 && agg != len(q.Select) {
		return nil, fmt.Errorf("query: cannot mix aggregate and non-aggregate select items in %q", p.src)
	}
	if q.Where != nil && HasAggregate(q.Where) {
		return nil, fmt.Errorf("query: aggregates are not allowed in where (%q)", p.src)
	}
	if agg > 0 && len(q.OrderBy) > 0 {
		return nil, fmt.Errorf("query: order by is meaningless with aggregates (%q)", p.src)
	}
	return q, nil
}

func (p *parser) checkVars(q *Query) error {
	declared := map[string]bool{}
	for _, f := range q.From {
		if declared[f.Var] {
			return fmt.Errorf("query: duplicate range variable %q", f.Var)
		}
		declared[f.Var] = true
	}
	var check func(e Expr) error
	check = func(e Expr) error {
		switch v := e.(type) {
		case nil:
			return nil
		case *VarRef:
			if !declared[v.Name] {
				return fmt.Errorf("query: undeclared variable %q", v.Name)
			}
		case *Path:
			if !declared[v.Var] {
				return fmt.Errorf("query: undeclared variable %q", v.Var)
			}
		case *Binary:
			if err := check(v.L); err != nil {
				return err
			}
			return check(v.R)
		case *Unary:
			return check(v.X)
		case *Call:
			for _, a := range v.Args {
				if err := check(a); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, s := range q.Select {
		if err := check(s.Expr); err != nil {
			return err
		}
	}
	for _, o := range q.OrderBy {
		if err := check(o.Expr); err != nil {
			return err
		}
	}
	return check(q.Where)
}

// Precedence climbing: or < and < not < comparison < add < mul < unary.

func (p *parser) parseExpr() (Expr, error) {
	if p.err != nil {
		return nil, p.err
	}
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNot, X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if p.acceptOp(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: BinOp(op), L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpAdd, L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpMul, L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpDiv, L: l, R: r}
		case p.acceptOp("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpMod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNeg, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.idx++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Literal{Val: datum.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Val: datum.Int(i)}, nil
	case tokString:
		p.idx++
		return &Literal{Val: datum.Str(t.text)}, nil
	case tokOp:
		if t.text == "(" {
			p.idx++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q", t.text)
	case tokIdent:
		lower := strings.ToLower(t.text)
		switch lower {
		case "true":
			p.idx++
			return &Literal{Val: datum.Bool(true)}, nil
		case "false":
			p.idx++
			return &Literal{Val: datum.Bool(false)}, nil
		case "null":
			p.idx++
			return &Literal{Val: datum.Null()}, nil
		case "event":
			p.idx++
			if err := p.expectOp("."); err != nil {
				return nil, err
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &EventRef{Name: name}, nil
		}
		p.idx++
		name := t.text
		// Function call?
		if p.acceptOp("(") {
			call := &Call{Fn: strings.ToLower(name)}
			if p.acceptOp("*") {
				call.Star = true
				if call.Fn != "count" {
					return nil, p.errf("only count(*) may use *")
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.acceptOp(",") {
						continue
					}
					if err := p.expectOp(")"); err != nil {
						return nil, err
					}
					break
				}
			}
			return call, nil
		}
		// Attribute path?
		if p.acceptOp(".") {
			attr, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &Path{Var: name, Attr: attr}, nil
		}
		if reservedWords[lower] {
			return nil, p.errf("unexpected keyword %q", t.text)
		}
		return &VarRef{Name: name}, nil
	default:
		return nil, p.errf("unexpected end of input")
	}
}
