// Package datum defines the value model shared by every layer of the
// database: typed attribute values, object identifiers, comparison,
// and the binary and JSON codecs used by the write-ahead log and the
// IPC protocol respectively.
//
// Values are small immutable variants. The zero Value is the null
// value. Values of different numeric kinds (int, float) compare with
// one another; all other cross-kind comparisons are errors so that
// schema bugs surface instead of silently ordering arbitrarily.
package datum

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the primitive kinds a Value can hold.
type Kind uint8

// The kinds of values supported by the data model.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
	KindOID
	KindList
)

// String returns the lower-case name of the kind as used in schema
// definitions and the query language ("int", "float", ...).
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindOID:
		return "oid"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindFromString parses a kind name as written in schema definitions.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "null":
		return KindNull, nil
	case "bool":
		return KindBool, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "string":
		return KindString, nil
	case "time":
		return KindTime, nil
	case "oid":
		return KindOID, nil
	case "list":
		return KindList, nil
	default:
		return KindNull, fmt.Errorf("datum: unknown kind %q", s)
	}
}

// OID is a database-wide object identifier. OIDs are allocated by the
// storage layer and never reused.
type OID uint64

// String formats the OID in the conventional "#<n>" notation.
func (o OID) String() string { return "#" + strconv.FormatUint(uint64(o), 10) }

// Value is a single typed datum. The zero Value is null.
type Value struct {
	kind Kind
	i    int64 // bool (0/1), int, OID, time (UnixNano)
	f    float64
	s    string
	l    []Value
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Str returns a string value. (Not named String: that is the Stringer
// method on Value.)
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Time returns a time value with nanosecond precision.
func Time(t time.Time) Value { return Value{kind: KindTime, i: t.UnixNano()} }

// ID returns an object-identifier value.
func ID(o OID) Value { return Value{kind: KindOID, i: int64(o)} }

// List returns a list value holding the given elements.
func List(vs ...Value) Value {
	cp := make([]Value, len(vs))
	copy(cp, vs)
	return Value{kind: KindList, l: cp}
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean content; false if the value is not a bool.
func (v Value) AsBool() bool { return v.kind == KindBool && v.i != 0 }

// AsInt returns the integer content. Floats are truncated toward zero.
func (v Value) AsInt() int64 {
	if v.kind == KindFloat {
		return int64(v.f)
	}
	return v.i
}

// AsFloat returns the numeric content as a float64.
func (v Value) AsFloat() float64 {
	if v.kind == KindFloat {
		return v.f
	}
	return float64(v.i)
}

// AsString returns the string content; "" if the value is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		return ""
	}
	return v.s
}

// AsTime returns the time content; the zero time if not a time value.
func (v Value) AsTime() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return time.Unix(0, v.i)
}

// AsOID returns the object-identifier content; 0 if not an OID value.
func (v Value) AsOID() OID {
	if v.kind != KindOID {
		return 0
	}
	return OID(v.i)
}

// AsList returns the list elements; nil if not a list value. The
// returned slice must not be modified.
func (v Value) AsList() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.l
}

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display and tracing.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindTime:
		return v.AsTime().UTC().Format(time.RFC3339Nano)
	case KindOID:
		return OID(v.i).String()
	case KindList:
		parts := make([]string, len(v.l))
		for i, e := range v.l {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return fmt.Sprintf("value(kind=%d)", v.kind)
	}
}

// ErrIncomparable is returned by Compare for values whose kinds have
// no defined ordering with respect to one another.
var ErrIncomparable = errors.New("datum: incomparable values")

// Compare orders two values: -1, 0, or +1. Int and float compare
// numerically with one another. Null compares equal to null and less
// than everything else (so ordered scans have a defined place for
// missing attributes). Other cross-kind comparisons return
// ErrIncomparable.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpInt(a.i, b.i), nil
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("%w: %s vs %s", ErrIncomparable, a.kind, b.kind)
	}
	switch a.kind {
	case KindBool:
		return cmpInt(a.i, b.i), nil
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindTime, KindOID:
		return cmpInt(a.i, b.i), nil
	case KindList:
		n := len(a.l)
		if len(b.l) < n {
			n = len(b.l)
		}
		for i := 0; i < n; i++ {
			c, err := Compare(a.l[i], b.l[i])
			if err != nil || c != 0 {
				return c, err
			}
		}
		return cmpInt(int64(len(a.l)), int64(len(b.l))), nil
	default:
		return 0, fmt.Errorf("%w: kind %s", ErrIncomparable, a.kind)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare. Values
// with incomparable kinds are unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Less reports whether a orders before b, treating incomparable kinds
// as ordered by kind tag. It is a total order suitable for sorting
// heterogeneous slices deterministically.
func Less(a, b Value) bool {
	if a.kind != b.kind && !(a.IsNumeric() && b.IsNumeric()) {
		return a.kind < b.kind
	}
	c, err := Compare(a, b)
	if err != nil {
		return a.kind < b.kind
	}
	return c < 0
}

// Key returns an order-preserving string encoding of the value for use
// as an index key: for values a, b of the same (or both numeric)
// kinds, Compare(a,b) < 0 iff Key(a) < Key(b) bytewise.
func (v Value) Key() string {
	var buf [32]byte // scalar keys fit: the string is the one allocation
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends Key's encoding to dst and returns the extended
// buffer, so a caller probing a map with m[string(buf)] builds no
// string at all.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindBool:
		return append(dst, 0x01, byte(v.i))
	case KindInt, KindFloat:
		// Encode all numerics through the float64 total order so int
		// and float keys interleave correctly.
		bits := math.Float64bits(v.AsFloat())
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all bits
		} else {
			bits |= 1 << 63 // positive: set sign bit
		}
		return binary.BigEndian.AppendUint64(append(dst, 0x02), bits)
	case KindString:
		return append(append(append(dst, 0x03), v.s...), 0x00)
	case KindTime, KindOID:
		tag := byte(0x04)
		if v.kind == KindOID {
			tag = 0x05
		}
		return binary.BigEndian.AppendUint64(append(dst, tag), uint64(v.i)^(1<<63))
	case KindList:
		dst = append(dst, 0x06)
		for _, e := range v.l {
			dst = e.AppendKey(dst)
		}
		return append(dst, 0x00)
	}
	return dst
}
