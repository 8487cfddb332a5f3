package ipc

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rule"
)

// binaryBodies lists a zero value of every body type with a binary
// encoding.
var binaryBodies = []any{
	TxnRef{}, CreateRep{}, GetReq{}, ModifyReq{}, CreateReq{}, GetRep{},
	QueryReq{}, QueryRep{}, SignalEventReq{}, AppCallBody{}, AppReplyBody{},
}

// jsonBodies lists a zero value of every body type EncodeBody sends as
// JSON, then the engine types that travel as JSON inside them (core.Stats
// in StatsRep.Engine) or are stored as JSON (rule.Def, object.Class).
var jsonBodies = []any{
	DefineClassReq{}, DropClassReq{}, ClassesRep{}, ExplainRep{},
	DefineEventReq{}, CreateRuleReq{}, RuleNameReq{}, RuleInfo{},
	ListRulesRep{}, ServeReq{}, StatsRep{}, CheckpointRep{},
	ReplStatusRep{}, PromoteRep{}, TraceReq{}, TraceRep{},
	GraphNode{}, GraphRep{},
	rule.Def{}, object.Class{}, core.Stats{}, obs.SpanSnapshot{},
}

// randValue draws a value of any kind, the floats and strings JSON
// cannot carry among them.
func randValue(rng *rand.Rand, depth int) datum.Value {
	n := 8
	if depth <= 0 {
		n = 7
	}
	switch rng.Intn(n) {
	case 0:
		return datum.Null()
	case 1:
		return datum.Bool(rng.Intn(2) == 0)
	case 2:
		return datum.Int(rng.Int63() - rng.Int63())
	case 3:
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
		if rng.Intn(2) == 0 {
			return datum.Float(specials[rng.Intn(len(specials))])
		}
		return datum.Float(rng.NormFloat64() * 1e6)
	case 4:
		return datum.Str(randString(rng))
	case 5:
		return datum.ID(datum.OID(rng.Uint64() >> 1))
	case 6:
		return datum.Time(time.Unix(0, rng.Int63()))
	default:
		elems := make([]datum.Value, rng.Intn(3))
		for i := range elems {
			elems[i] = randValue(rng, depth-1)
		}
		return datum.List(elems...)
	}
}

// randString draws a short string, not always valid UTF-8.
func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(8))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// randFill sets every field of the struct v points to at random.
func randFill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randFill(rng, v.Field(i))
		}
	case reflect.Uint64:
		v.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
	case reflect.String:
		v.SetString(randString(rng))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), rng.Intn(4), 4))
		for i := 0; i < v.Len(); i++ {
			if v.Type().Elem() == reflect.TypeOf(datum.Value{}) {
				v.Index(i).Set(reflect.ValueOf(randValue(rng, 2)))
			} else {
				randFill(rng, v.Index(i))
			}
		}
	case reflect.Map:
		m := map[string]datum.Value{}
		for i := rng.Intn(5); i > 0; i-- {
			m[randString(rng)] = randValue(rng, 2)
		}
		v.Set(reflect.ValueOf(m))
	default:
		panic(fmt.Sprintf("randFill: no generator for %s", v.Type()))
	}
}

// sameBody compares two bodies field by field. Values are equal when
// their binary encodings are — NaN equals NaN, and -0 differs from 0 —
// and a nil map or slice equals an empty one.
func sameBody(a, b reflect.Value) bool {
	if a.Type() == reflect.TypeOf(datum.Value{}) {
		return bytes.Equal(a.Interface().(datum.Value).AppendBinary(nil), b.Interface().(datum.Value).AppendBinary(nil))
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBody(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBody(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !sameBody(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// TestBinaryBodyRoundTrip: random instances of every binary body type
// cross EncodeBody, Write, Read and DecodeBody unchanged.
func TestBinaryBodyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, zero := range binaryBodies {
		typ := reflect.TypeOf(zero)
		if _, ok := appendBody(nil, zero); !ok {
			t.Fatalf("%s has no binary encoding", typ)
		}
		for trial := 0; trial < 500; trial++ {
			in := reflect.New(typ).Elem()
			randFill(rng, in)
			body, err := EncodeBody(in.Interface())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, &Message{ID: uint64(trial), Kind: KindRequest, Op: OpGet, Body: body}); err != nil {
				t.Fatal(err)
			}
			m, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			out := reflect.New(typ)
			if err := DecodeBody(m, out.Interface()); err != nil {
				t.Fatalf("%s: decode %x: %v", typ, body, err)
			}
			if !sameBody(in, out.Elem()) {
				t.Fatalf("%s: %+v came back as %+v", typ, in, out.Elem())
			}
		}
	}
}

// TestNoValueInJSONBodies: datum.Value has no JSON codec, so a Value
// in a JSON body would encode as {} without an error. Values cross the
// wire only in binary bodies.
func TestNoValueInJSONBodies(t *testing.T) {
	for _, zero := range jsonBodies {
		typ := reflect.TypeOf(zero)
		if _, ok := appendBody(nil, zero); ok {
			t.Errorf("%s has a binary encoding; move it to binaryBodies", typ)
		}
		if path := valuePath(typ, typ.Name(), map[reflect.Type]bool{}); path != "" {
			t.Errorf("%s holds a datum.Value at %s", typ, path)
		}
	}
	if valuePath(reflect.TypeOf(QueryRep{}), "QueryRep", map[reflect.Type]bool{}) == "" {
		t.Fatal("the walk missed the Values of QueryRep.Rows")
	}
}

// valuePath returns the path to a datum.Value, or to an interface that
// could hold one, inside typ; "" when there is none.
func valuePath(typ reflect.Type, path string, seen map[reflect.Type]bool) string {
	if typ == reflect.TypeOf(datum.Value{}) || typ.Kind() == reflect.Interface {
		return path
	}
	if seen[typ] {
		return ""
	}
	seen[typ] = true
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				if p := valuePath(f.Type, path+"."+f.Name, seen); p != "" {
					return p
				}
			}
		}
	case reflect.Map:
		if p := valuePath(typ.Key(), path+"[key]", seen); p != "" {
			return p
		}
		return valuePath(typ.Elem(), path+"[]", seen)
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return valuePath(typ.Elem(), path+"[]", seen)
	}
	return ""
}

// TestEveryBodyIsListed: every exported struct in ipc.go is a binary
// body or a JSON body the walk above checks, so a new body type cannot
// slip a datum.Value into JSON unseen.
func TestEveryBodyIsListed(t *testing.T) {
	listed := map[string]bool{"Message": true} // the envelope, not a body
	for _, zero := range slices.Concat(binaryBodies, jsonBodies) {
		if typ := reflect.TypeOf(zero); typ.PkgPath() == reflect.TypeOf(Message{}).PkgPath() {
			listed[typ.Name()] = true
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), "ipc.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if _, isStruct := ts.Type.(*ast.StructType); isStruct && ts.Assign == 0 && ts.Name.IsExported() && !listed[ts.Name.Name] {
				t.Errorf("%s is in neither binaryBodies nor jsonBodies", ts.Name.Name)
			}
		}
	}
}

func TestDecodeBodyRejectsTrailingBytes(t *testing.T) {
	body, _ := EncodeBody(GetReq{Txn: 1, OID: 2})
	var req GetReq
	if err := DecodeBody(&Message{Op: OpGet, Body: append(body, 0)}, &req); err == nil {
		t.Fatal("a body with a trailing byte was accepted")
	}
}

// FuzzIPCBody drives every binary body decoder over arbitrary bytes: no
// panic, no allocation beyond a fixed multiple of the input, and every
// body it accepts re-encodes to bytes that decode and re-encode to the
// same bytes.
func FuzzIPCBody(f *testing.F) {
	nan := map[string]datum.Value{"x": datum.Float(math.NaN()), "l": datum.List(datum.Str("a\xffb"))}
	for i, v := range []any{
		TxnRef{Txn: 7}, CreateRep{OID: 1 << 50}, GetReq{Txn: 1, OID: 2},
		ModifyReq{Txn: 1, OID: 2, Attrs: nan}, CreateReq{Txn: 3, Class: "Stock", Attrs: nan},
		GetRep{OID: 2, Class: "Stock", Attrs: nan}, QueryReq{Src: "select s from Stock s", Args: nan},
		QueryRep{Columns: []string{"a", "b"}, Rows: [][]datum.Value{{datum.Int(1), datum.Null()}}},
		SignalEventReq{Name: "Tick", Args: nan}, AppCallBody{Op: "show", Args: nan}, AppReplyBody{Reply: nan},
	} {
		body, err := EncodeBody(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(i), body)
	}
	f.Add(byte(7), []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		typ := reflect.TypeOf(binaryBodies[int(which)%len(binaryBodies)])
		decode := func(b []byte) (any, error) {
			v := reflect.New(typ)
			err := DecodeBody(&Message{Body: b}, v.Interface())
			return v.Elem().Interface(), err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := decode(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+256*uint64(len(data)) {
			t.Fatalf("%s: decoding %d bytes allocated %d", typ, len(data), grew)
		}
		if err != nil {
			return
		}
		once, err := EncodeBody(v)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := decode(once)
		if err != nil {
			t.Fatalf("%s: re-encoded %x does not decode: %v", typ, once, err)
		}
		if twice, _ := EncodeBody(v2); !bytes.Equal(once, twice) {
			t.Fatalf("%s: %x re-encoded as %x", typ, once, twice)
		}
	})
}
