// Package datum defines the value model shared by every layer of the
// database: typed attribute values, object identifiers, comparison,
// the shape-addressed rows objects are stored as (row.go), and the
// binary codec the write-ahead log and the IPC protocol share. A Value
// has no JSON form.
//
// Values are small immutable variants. The zero Value is the null
// value. Values of different numeric kinds (int, float) compare with
// one another; all other cross-kind comparisons are errors so that
// schema bugs surface instead of silently ordering arbitrarily.
//
// A Value is 24 bytes with one pointer word, in the manner of
// log/slog.Value: a payload word holds a scalar (or a string's or
// list's length) and the pointer word a string's bytes or a list's
// elements. The pointer is an unsafe.Pointer, so reflect.DeepEqual
// compares strings and lists by address, not content: compare Values
// with Equal, or Identical where 1 and 1.0 must differ.
package datum

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
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
	_ [0]func() // not comparable: == would compare strings by address
	// ptr is a string's first byte or a list's first element; nil for
	// every other kind and for empty strings and lists (and a row's
	// *shape in the row's header cell, row.go). It comes first, so a
	// Value's only pointer word leads it.
	ptr unsafe.Pointer
	// num is the payload: bool (0/1), int, OID, time (UnixNano) or the
	// float's bits; a string's or list's length.
	num  uint64
	kind Kind
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// Str returns a string value. (Not named String: that is the Stringer
// method on Value.)
func Str(s string) Value {
	if len(s) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, ptr: unsafe.Pointer(unsafe.StringData(s)), num: uint64(len(s))}
}

// Time returns a time value with nanosecond precision.
func Time(t time.Time) Value { return Value{kind: KindTime, num: uint64(t.UnixNano())} }

// ID returns an object-identifier value.
func ID(o OID) Value { return Value{kind: KindOID, num: uint64(o)} }

// List returns a list value holding the given elements.
func List(vs ...Value) Value {
	cp := make([]Value, len(vs))
	copy(cp, vs)
	return listOf(cp)
}

// listOf wraps elems, which the caller hands over, as a list value.
func listOf(elems []Value) Value {
	if len(elems) == 0 {
		return Value{kind: KindList}
	}
	return Value{kind: KindList, ptr: unsafe.Pointer(unsafe.SliceData(elems)), num: uint64(len(elems))}
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean content; false if the value is not a bool.
func (v Value) AsBool() bool { return v.kind == KindBool && v.num != 0 }

// AsInt returns the integer content. Floats are truncated toward zero;
// strings, lists and null give 0.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindFloat:
		return int64(v.float())
	case KindString, KindList:
		return 0
	}
	return int64(v.num)
}

// AsFloat returns the numeric content as a float64.
func (v Value) AsFloat() float64 {
	if v.kind == KindFloat {
		return v.float()
	}
	return float64(v.AsInt())
}

func (v Value) float() float64 { return math.Float64frombits(v.num) }

// AsString returns the string content; "" if the value is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.num))
}

// AsTime returns the time content; the zero time if not a time value.
func (v Value) AsTime() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return time.Unix(0, int64(v.num))
}

// AsOID returns the object-identifier content; 0 if not an OID value.
func (v Value) AsOID() OID {
	if v.kind != KindOID {
		return 0
	}
	return OID(v.num)
}

// AsList returns the list elements; nil if not a list value or an
// empty one. The returned slice must not be modified.
func (v Value) AsList() []Value {
	if v.kind != KindList {
		return nil
	}
	return unsafe.Slice((*Value)(v.ptr), int(v.num))
}

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display and tracing.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.AsString())
	case KindTime:
		return v.AsTime().UTC().Format(time.RFC3339Nano)
	case KindOID:
		return OID(v.num).String()
	case KindList:
		l := v.AsList()
		parts := make([]string, len(l))
		for i, e := range l {
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
			return cmpInt(int64(a.num), int64(b.num)), nil
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
	case KindBool, KindTime, KindOID:
		return cmpInt(int64(a.num), int64(b.num)), nil
	case KindString:
		return strings.Compare(a.AsString(), b.AsString()), nil
	case KindList:
		al, bl := a.AsList(), b.AsList()
		for i := range min(len(al), len(bl)) {
			c, err := Compare(al[i], bl[i])
			if err != nil || c != 0 {
				return c, err
			}
		}
		return cmpInt(int64(len(al)), int64(len(bl))), nil
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

// Identical reports whether a and b are the same value: the same kind
// and the same payload, floats bit for bit, strings and lists by
// content. Unlike Equal it tells Int(1) from Float(1); unlike
// reflect.DeepEqual it does not compare strings and lists by address.
func Identical(a, b Value) bool {
	if a.kind != b.kind || a.num != b.num {
		return false
	}
	switch a.kind {
	case KindString:
		return a.AsString() == b.AsString()
	case KindList:
		bl := b.AsList()
		for i, e := range a.AsList() {
			if !Identical(e, bl[i]) {
				return false
			}
		}
	}
	return true
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
		return append(dst, 0x01, byte(v.num))
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
		return append(append(append(dst, 0x03), v.AsString()...), 0x00)
	case KindTime, KindOID:
		tag := byte(0x04)
		if v.kind == KindOID {
			tag = 0x05
		}
		return binary.BigEndian.AppendUint64(append(dst, tag), v.num^(1<<63))
	case KindList:
		dst = append(dst, 0x06)
		for _, e := range v.AsList() {
			dst = e.AppendKey(dst)
		}
		return append(dst, 0x00)
	}
	return dst
}
