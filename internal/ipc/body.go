package ipc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/datum"
)

// appendBody appends v's binary encoding to b; ok is false when v's
// type has a JSON body.
func appendBody(b []byte, v any) (_ []byte, ok bool) {
	switch v := v.(type) {
	case TxnRef:
		return binary.AppendUvarint(b, v.Txn), true
	case CreateRep:
		return binary.AppendUvarint(b, v.OID), true
	case GetReq:
		return binary.AppendUvarint(binary.AppendUvarint(b, v.Txn), v.OID), true
	case ModifyReq:
		b = binary.AppendUvarint(binary.AppendUvarint(b, v.Txn), v.OID)
		return datum.EncodeMap(b, v.Attrs), true
	case CreateReq:
		return appendNamed(b, v.Txn, v.Class, v.Attrs), true
	case GetRep:
		return appendNamed(b, v.OID, v.Class, v.Attrs), true
	case QueryReq:
		return appendNamed(b, v.Txn, v.Src, v.Args), true
	case SignalEventReq:
		return appendNamed(b, v.Txn, v.Name, v.Args), true
	case AppCallBody:
		return datum.EncodeMap(appendString(b, v.Op), v.Args), true
	case AppReplyBody:
		return datum.EncodeMap(b, v.Reply), true
	case QueryRep:
		b = binary.AppendUvarint(b, uint64(len(v.Columns)))
		for _, c := range v.Columns {
			b = appendString(b, c)
		}
		b = binary.AppendUvarint(b, uint64(len(v.Rows)))
		for _, row := range v.Rows {
			b = binary.AppendUvarint(b, uint64(len(row)))
			for _, x := range row {
				b = x.AppendBinary(b)
			}
		}
		return b, true
	}
	return b, false
}

// appendNamed encodes the shape most binary bodies share: an id, a
// name and an attribute map.
func appendNamed(b []byte, id uint64, name string, m map[string]datum.Value) []byte {
	return datum.EncodeMap(appendString(binary.AppendUvarint(b, id), name), m)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decodeBody decodes b into the binary body v points to; ok is false
// when v's type has a JSON body. Bytes left over are an error.
func decodeBody(b []byte, v any) (ok bool, err error) {
	d := decoder{b: b}
	switch v := v.(type) {
	case *TxnRef:
		v.Txn = d.uint()
	case *CreateRep:
		v.OID = d.uint()
	case *GetReq:
		v.Txn, v.OID = d.uint(), d.uint()
	case *ModifyReq:
		v.Txn, v.OID, v.Attrs = d.uint(), d.uint(), d.attrs()
	case *CreateReq:
		v.Txn, v.Class, v.Attrs = d.uint(), d.str(), d.attrs()
	case *GetRep:
		v.OID, v.Class, v.Attrs = d.uint(), d.str(), d.attrs()
	case *QueryReq:
		v.Txn, v.Src, v.Args = d.uint(), d.str(), d.attrs()
	case *SignalEventReq:
		v.Txn, v.Name, v.Args = d.uint(), d.str(), d.attrs()
	case *AppCallBody:
		v.Op, v.Args = d.str(), d.attrs()
	case *AppReplyBody:
		v.Reply = d.attrs()
	case *QueryRep:
		v.Columns = make([]string, d.count())
		for i := range v.Columns {
			v.Columns[i] = d.str()
		}
		v.Rows = make([][]datum.Value, d.count())
		for i := range v.Rows {
			row := make([]datum.Value, d.count())
			for j := range row {
				row[j] = d.value()
			}
			v.Rows[i] = row
		}
	default:
		return false, nil
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d bytes after the body", len(d.b))
	}
	return true, d.err
}

// decoder reads the binary fields of an envelope or a body. The first
// failure sticks: every later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

func (d *decoder) uint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) u8() byte {
	if len(d.b) == 0 {
		d.fail("truncated message")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// count reads a length. Every element it counts takes at least one
// byte, so a length beyond the bytes left is corrupt and is refused
// before the caller allocates for it.
func (d *decoder) count() int {
	n := d.uint()
	if n > uint64(len(d.b)) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) value() datum.Value {
	if d.err != nil {
		return datum.Value{}
	}
	v, n, err := datum.DecodeBinary(d.b)
	if err != nil {
		d.fail("%v", err)
		return datum.Value{}
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) attrs() map[string]datum.Value {
	if d.err != nil {
		return nil
	}
	m, n, err := datum.DecodeMap(d.b)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	d.b = d.b[n:]
	return m
}
