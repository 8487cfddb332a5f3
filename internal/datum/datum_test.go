package datum

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKindRoundTrip(t *testing.T) {
	for k := KindNull; k <= KindList; k++ {
		got, err := KindFromString(k.String())
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("kind %v round-tripped to %v", k, got)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Error("KindFromString(bogus) should fail")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	now := time.Unix(12345, 6789)
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Bool(true), KindBool},
		{Int(-42), KindInt},
		{Float(3.5), KindFloat},
		{Str("hi"), KindString},
		{Time(now), KindTime},
		{ID(7), KindOID},
		{List(Int(1), Str("x")), KindList},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("AsBool wrong")
	}
	if Int(-42).AsInt() != -42 {
		t.Error("AsInt wrong")
	}
	if Float(3.75).AsInt() != 3 {
		t.Error("AsInt on float should truncate")
	}
	if Int(2).AsFloat() != 2.0 {
		t.Error("AsFloat on int wrong")
	}
	if Str("hi").AsString() != "hi" || Int(1).AsString() != "" {
		t.Error("AsString wrong")
	}
	if !Time(now).AsTime().Equal(now) {
		t.Error("AsTime wrong")
	}
	if ID(7).AsOID() != 7 || Int(7).AsOID() != 0 {
		t.Error("AsOID wrong")
	}
	if got := List(Int(1), Int(2)).AsList(); len(got) != 2 || got[1].AsInt() != 2 {
		t.Error("AsList wrong")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull wrong")
	}
}

func TestListCopiesInput(t *testing.T) {
	src := []Value{Int(1)}
	v := List(src...)
	src[0] = Int(99)
	if v.AsList()[0].AsInt() != 1 {
		t.Error("List must copy its input slice")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.5), -1},
		{Float(2.0), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{ID(1), ID(2), -1},
		{List(Int(1)), List(Int(1), Int(2)), -1},
		{List(Int(2)), List(Int(1), Int(9)), 1},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(Str("a"), Int(1)); err == nil {
		t.Error("string vs int should be incomparable")
	}
	if Equal(Str("a"), Int(1)) {
		t.Error("incomparable values must not be Equal")
	}
	if !Equal(Int(3), Float(3)) {
		t.Error("int 3 should equal float 3")
	}
}

func TestLessTotalOrder(t *testing.T) {
	vs := []Value{Null(), Bool(true), Int(5), Float(2.5), Str("z"), ID(1)}
	for i, a := range vs {
		for j, b := range vs {
			if i == j {
				if Less(a, b) {
					t.Errorf("Less(%v,%v) should be false for equal values", a, b)
				}
				continue
			}
			if Less(a, b) == Less(b, a) && !Equal(a, b) {
				t.Errorf("Less not antisymmetric for %v, %v", a, b)
			}
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Str("hi"), `"hi"`},
		{ID(9), "#9"},
		{List(Int(1), Str("a")), `[1, "a"]`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	if !strings.Contains(Time(time.Unix(0, 0)).String(), "1970") {
		t.Error("time String should be RFC3339")
	}
}

func TestKeyOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(rng.Int63n(2000) - 1000)
		case 1:
			return Float((rng.Float64() - 0.5) * 2000)
		case 2:
			return Str(randString(rng))
		default:
			return Time(time.Unix(0, rng.Int63n(1e12)-5e11))
		}
	}
	for trial := 0; trial < 5000; trial++ {
		a, b := gen(), gen()
		c, err := Compare(a, b)
		if err != nil {
			continue // cross-kind: keys order by kind tag, not asserted
		}
		ka, kb := a.Key(), b.Key()
		switch {
		case c < 0 && !(ka < kb):
			t.Fatalf("Compare(%v,%v)<0 but Key %q >= %q", a, b, ka, kb)
		case c > 0 && !(ka > kb):
			t.Fatalf("Compare(%v,%v)>0 but Key %q <= %q", a, b, ka, kb)
		case c == 0 && ka != kb && a.Kind() == b.Kind():
			t.Fatalf("Compare(%v,%v)=0 but keys differ", a, b)
		}
	}
}

func TestKeyNegativeFloats(t *testing.T) {
	vals := []Value{Float(math.Inf(-1)), Float(-100.5), Float(-0.001), Float(0),
		Float(0.001), Int(7), Float(100.5), Float(math.Inf(1))}
	for i := 1; i < len(vals); i++ {
		if !(vals[i-1].Key() < vals[i].Key()) {
			t.Errorf("Key order broken between %v and %v", vals[i-1], vals[i])
		}
	}
}

func randString(rng *rand.Rand) string {
	n := rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randValue(rng *rand.Rand, depth int) Value {
	n := 7
	if depth <= 0 {
		n = 6
	}
	switch rng.Intn(n) {
	case 0:
		return Null()
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2:
		return Int(rng.Int63() - rng.Int63())
	case 3:
		return Float(rng.NormFloat64() * 1e6)
	case 4:
		return Str(randString(rng))
	case 5:
		return ID(OID(rng.Uint64() >> 1))
	default:
		k := rng.Intn(3)
		elems := make([]Value, k)
		for i := range elems {
			elems[i] = randValue(rng, depth-1)
		}
		return List(elems...)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		v := randValue(rng, 2)
		enc := v.AppendBinary(nil)
		got, n, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %v consumed %d of %d bytes", v, n, len(enc))
		}
		if !reflect.DeepEqual(normalize(v), normalize(got)) {
			t.Fatalf("round trip: %v -> %v", v, got)
		}
	}
}

// normalize maps a Value to a comparable representation (NaN-safe).
func normalize(v Value) any {
	switch v.Kind() {
	case KindFloat:
		f := v.AsFloat()
		if math.IsNaN(f) {
			return "NaN"
		}
		return f
	case KindList:
		l := v.AsList()
		out := make([]any, len(l))
		for i, e := range l {
			out[i] = normalize(e)
		}
		return out
	default:
		return v.String()
	}
}

func TestBinaryTruncation(t *testing.T) {
	v := List(Int(1), Str("hello"), Float(2.5))
	enc := v.AppendBinary(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeBinary(enc[:i]); err == nil {
			t.Errorf("decoding %d-byte prefix should fail", i)
		}
	}
}

func TestBinaryGarbage(t *testing.T) {
	if _, _, err := DecodeBinary([]byte{0xFF, 1, 2}); err == nil {
		t.Error("unknown kind tag should fail")
	}
}

func TestMapRoundTrip(t *testing.T) {
	m := map[string]Value{
		"price":  Float(50.25),
		"symbol": Str("XRX"),
		"qty":    Int(500),
		"active": Bool(true),
	}
	enc := EncodeMap(nil, m)
	got, n, err := DecodeMap(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if len(got) != len(m) {
		t.Fatalf("got %d entries, want %d", len(got), len(m))
	}
	for k, v := range m {
		if !Equal(got[k], v) {
			t.Errorf("key %q: got %v want %v", k, got[k], v)
		}
	}
}

func TestMapDeterministicEncoding(t *testing.T) {
	m := map[string]Value{"b": Int(2), "a": Int(1), "c": Int(3)}
	e1 := EncodeMap(nil, m)
	for i := 0; i < 20; i++ {
		e2 := EncodeMap(nil, m)
		if string(e1) != string(e2) {
			t.Fatal("EncodeMap must be deterministic")
		}
	}
}

func TestMapTruncation(t *testing.T) {
	enc := EncodeMap(nil, map[string]Value{"k": Int(5)})
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeMap(enc[:i]); err == nil && i > 0 {
			t.Errorf("decoding %d-byte prefix should fail", i)
		}
	}
}

func TestCloneMap(t *testing.T) {
	if CloneMap(nil) != nil {
		t.Error("CloneMap(nil) should be nil")
	}
	m := map[string]Value{"a": Int(1)}
	c := CloneMap(m)
	c["a"] = Int(2)
	if m["a"].AsInt() != 1 {
		t.Error("CloneMap must copy")
	}
}

func TestQuickCompareReflexive(t *testing.T) {
	f := func(i int64) bool {
		v := Int(i)
		c, err := Compare(v, v)
		return err == nil && c == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		ca, _ := Compare(Int(a), Int(b))
		cb, _ := Compare(Int(b), Int(a))
		return ca == -cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringBinaryRoundTrip(t *testing.T) {
	f := func(s string) bool {
		enc := Str(s).AppendBinary(nil)
		v, n, err := DecodeBinary(enc)
		return err == nil && n == len(enc) && v.AsString() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloatKeyOrder(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		va, vb := Float(a), Float(b)
		c, _ := Compare(va, vb)
		ka, kb := va.Key(), vb.Key()
		switch {
		case c < 0:
			return ka < kb
		case c > 0:
			return ka > kb
		default:
			return ka == kb || a != b // -0 vs +0 may differ in key; both fine
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
