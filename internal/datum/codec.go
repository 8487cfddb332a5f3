package datum

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendBinary appends a compact binary encoding of the value to dst
// and returns the extended slice. The encoding is self-delimiting:
// DecodeBinary can recover the value and the number of bytes consumed.
// It is the on-disk format used by the write-ahead log, and the ipc
// wire's for values.
func (v Value) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		dst = append(dst, byte(v.i))
	case KindInt, KindTime, KindOID:
		dst = binary.AppendVarint(dst, v.i)
	case KindFloat:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v.f))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindList:
		dst = binary.AppendUvarint(dst, uint64(len(v.l)))
		for _, e := range v.l {
			dst = e.AppendBinary(dst)
		}
	}
	return dst
}

// DecodeBinary decodes a value produced by AppendBinary from the front
// of b, returning the value and the number of bytes consumed.
func DecodeBinary(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("datum: empty binary value")
	}
	k := Kind(b[0])
	n := 1
	switch k {
	case KindNull:
		return Value{}, n, nil
	case KindBool:
		if len(b) < 2 {
			return Value{}, 0, fmt.Errorf("datum: truncated bool")
		}
		return Bool(b[1] != 0), 2, nil
	case KindInt, KindTime, KindOID:
		i, m := binary.Varint(b[n:])
		if m <= 0 {
			return Value{}, 0, fmt.Errorf("datum: truncated varint for kind %s", k)
		}
		return Value{kind: k, i: i}, n + m, nil
	case KindFloat:
		if len(b) < n+8 {
			return Value{}, 0, fmt.Errorf("datum: truncated float")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(b[n : n+8]))
		return Float(f), n + 8, nil
	case KindString:
		l, m := binary.Uvarint(b[n:])
		// Compare in uint64 so a huge length cannot wrap int and slip
		// past the bounds check.
		if m <= 0 || l > uint64(len(b)-n-m) {
			return Value{}, 0, fmt.Errorf("datum: truncated string")
		}
		n += m
		return Str(string(b[n : n+int(l)])), n + int(l), nil
	case KindList:
		l, m := binary.Uvarint(b[n:])
		// Each element takes at least one byte, so a count beyond the
		// remaining input is corrupt — reject before allocating.
		if m <= 0 || l > uint64(len(b)-n-m) {
			return Value{}, 0, fmt.Errorf("datum: truncated list length")
		}
		n += m
		elems := make([]Value, 0, l)
		for i := uint64(0); i < l; i++ {
			e, m, err := DecodeBinary(b[n:])
			if err != nil {
				return Value{}, 0, fmt.Errorf("datum: list element %d: %w", i, err)
			}
			elems = append(elems, e)
			n += m
		}
		return Value{kind: KindList, l: elems}, n, nil
	default:
		return Value{}, 0, fmt.Errorf("datum: unknown binary kind tag %d", b[0])
	}
}

// EncodeMap appends a binary encoding of an attribute map (sorted by
// attribute name for determinism) to dst.
func EncodeMap(dst []byte, m map[string]Value) []byte {
	keys := sortedKeys(m)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = m[k].AppendBinary(dst)
	}
	return dst
}

// DecodeMap decodes an attribute map written by EncodeMap from the
// front of b, returning the map and bytes consumed.
func DecodeMap(b []byte) (map[string]Value, int, error) {
	cnt, n := binary.Uvarint(b)
	// Each entry takes at least two bytes (key length + kind tag), so
	// a count beyond the remaining input is corrupt — reject before
	// allocating the map.
	if n <= 0 || cnt > uint64(len(b)-n) {
		return nil, 0, fmt.Errorf("datum: truncated map header")
	}
	m := make(map[string]Value, cnt)
	for i := uint64(0); i < cnt; i++ {
		l, k := binary.Uvarint(b[n:])
		if k <= 0 || l > uint64(len(b)-n-k) {
			return nil, 0, fmt.Errorf("datum: truncated map key")
		}
		n += k
		key := string(b[n : n+int(l)])
		n += int(l)
		v, m2, err := DecodeBinary(b[n:])
		if err != nil {
			return nil, 0, fmt.Errorf("datum: map value for %q: %w", key, err)
		}
		m[key] = v
		n += m2
	}
	return m, n, nil
}

func sortedKeys(m map[string]Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort: maps here are small attribute sets
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// CloneMap returns a shallow copy of an attribute map. Values are
// immutable, so a shallow copy is a safe snapshot.
func CloneMap(m map[string]Value) map[string]Value {
	if m == nil {
		return nil
	}
	cp := make(map[string]Value, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}
