package datum

// Rows: the form a stored object's attributes take.
//
// A Row is immutable: an interned shape — the sorted attribute names,
// shared by every row with the same names — and the values in that
// order, in one allocation: a header cell whose pointer word is the
// shape, then the values. The Row itself is one pointer to the header,
// so a query tuple binding one costs what binding a map did. Reading an
// attribute by its Attr id is two indexed loads (the shape's slot
// table, then the cell), which is what compiled queries do; reading one
// by name is a binary search over the shape's names.
//
// Maps remain only at the edges of the engine: what a caller hands in
// (Store.Put, Modify's updates, ipc bodies) and what it gets back
// (Engine.Get, ipc replies, event bindings). AppendRow writes a row in
// EncodeMap's format, names in the shape's (sorted) order, so the
// write-ahead log and snapshots do not change with the representation.
//
// Attribute ids and shapes are interned process-wide (internTable): a
// lookup of a known name or attribute set reads an immutable map with
// no lock and no allocation, and only one never seen before, or seen
// too recently to be published yet, takes the table's mutex.
// Process-wide, because an id compiled into a plan must mean the same
// attribute in every row the plan reads, whichever store or decoder
// built it. Against input that names things without end (a
// fuzzer, say) the shapes are bounded: a shape's slot table covers only
// the first denseAttrs ids, and the shape table starts over past
// maxShapes entries. The id table is never pruned — a compiled plan may
// hold any id — so it grows by one entry per distinct name.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Attr is a process-wide attribute id, assigned to a name the first
// time AttrOf or a new shape sees it. Ids are small and dense, so a
// shape can map them to slots with a table.
type Attr int32

// shape is an interned set of attribute names in ascending order. Every
// row with the same names shares one shape.
type shape struct {
	names []string
	// slots maps an Attr below denseAttrs to its cell, 1 + its index in
	// names; 0 (or an Attr past the end) means the shape lacks it. far
	// holds the cells of the shape's Attrs at or above denseAttrs,
	// ascending by Attr.
	slots []int32
	far   []farSlot
}

type farSlot struct {
	a    Attr
	cell int32
}

// denseAttrs bounds a shape's slot table at 4 KiB. A process that has
// seen more attribute names than this finds the later ones by a binary
// search in the shape's far list instead of one indexed load.
const denseAttrs = 1024

// maxShapes bounds the shape table; past it the table starts over.
// Rows keep their own shapes alive, so starting over costs only
// sharing: a row built afterwards gets a new shape even where an older
// row has the same names.
const maxShapes = 1 << 14

// farCell is the slot-table lookup for an Attr past the dense table.
func (s *shape) farCell(a Attr) int32 {
	i, ok := slices.BinarySearchFunc(s.far, a, func(f farSlot, a Attr) int { return int(f.a) - int(a) })
	if !ok {
		return 0
	}
	return s.far[i].cell
}

// index returns name's position in the shape, or -1.
func (s *shape) index(name string) int {
	if i, ok := slices.BinarySearch(s.names, name); ok {
		return i
	}
	return -1
}

// internTable is an intern table whose lookups take no lock: they read
// an immutable map through an atomic pointer. A key that map lacks is
// looked up, and if new added, under mu in dirty, which holds every
// entry while it exists; once as many lookups have gone to dirty as it
// holds entries, dirty is published as the read map. So a settled key
// costs one map probe, and a copy of the read map into a new dirty one
// is paid for by as many locked lookups as it copies entries, however
// many keys arrive — sync.Map's scheme, kept typed so that a lookup
// neither boxes its key nor allocates.
type internTable[V any] struct {
	read   atomic.Pointer[map[string]V]
	mu     sync.Mutex
	dirty  map[string]V // nil while read holds every entry
	misses int
	limit  int // past this many entries the table starts over; 0: none
}

// get returns key's value if the read map has it. key is only read.
func (t *internTable[V]) get(key string) (V, bool) {
	if m := t.read.Load(); m != nil {
		v, ok := (*m)[key]
		return v, ok
	}
	var zero V
	return zero, false
}

// intern returns key's value, calling mk with a private copy of key and
// the number of entries to build it when key is new. key is only read.
func (t *internTable[V]) intern(key string, mk func(key string, n int) V) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.get(key); ok {
		return v
	}
	if t.dirty == nil {
		if m := t.read.Load(); m != nil {
			t.dirty = maps.Clone(*m)
		} else {
			t.dirty = map[string]V{}
		}
	}
	v, ok := t.dirty[key]
	if !ok {
		if t.limit > 0 && len(t.dirty) >= t.limit {
			t.dirty = map[string]V{}
		}
		kept := strings.Clone(key)
		v = mk(kept, len(t.dirty))
		t.dirty[kept] = v
	}
	if t.misses++; t.misses >= len(t.dirty) {
		m := t.dirty
		t.read.Store(&m)
		t.dirty, t.misses = nil, 0
	}
	return v
}

// len returns the number of entries.
func (t *internTable[V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dirty != nil {
		return len(t.dirty)
	}
	if m := t.read.Load(); m != nil {
		return len(*m)
	}
	return 0
}

var (
	attrIDs internTable[Attr]
	shapes  = internTable[*shape]{limit: maxShapes} // by shapeKey
)

// AttrOf returns name's attribute id, assigning the next one if the
// name is new.
func AttrOf(name string) Attr {
	if a, ok := attrIDs.get(name); ok {
		return a
	}
	return attrIDs.intern(name, func(_ string, n int) Attr { return Attr(n) })
}

// Shapes returns the number of interned shapes.
func Shapes() int { return shapes.len() }

// shapeKey appends the interning key of sorted names to dst: each name
// length-prefixed, so no two name lists share a key.
func shapeKey(dst []byte, names []string) []byte {
	for _, n := range names {
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
	}
	return dst
}

// shapeFor returns the interned shape of key (see shapeKey), building
// it when it is new.
func shapeFor(key []byte) *shape {
	// A view of key, not a copy: the tables only read it, and intern
	// copies what it keeps.
	k := unsafe.String(unsafe.SliceData(key), len(key))
	if s, ok := shapes.get(k); ok {
		return s
	}
	return shapes.intern(k, newShape)
}

// newShape builds the shape of key, which it may keep.
func newShape(key string, _ int) *shape {
	var names []string
	for k := key; len(k) > 0; {
		l, n := binary.Uvarint([]byte(k[:min(len(k), binary.MaxVarintLen64)]))
		names = append(names, k[n:n+int(l)])
		k = k[n+int(l):]
	}
	s := &shape{names: names}
	ids := make([]Attr, len(names))
	for i, name := range names {
		ids[i] = AttrOf(name)
	}
	s.slots = make([]int32, min(slices.Max(ids)+1, denseAttrs))
	for i, a := range ids {
		if a < denseAttrs {
			s.slots[a] = int32(i + 1)
		} else {
			s.far = append(s.far, farSlot{a, int32(i + 1)})
		}
	}
	slices.SortFunc(s.far, func(x, y farSlot) int { return int(x.a) - int(y.a) })
	return s
}

// Row is an object's attributes: an interned shape and one value per
// attribute in the shape's order. The zero Row has no attributes. Rows
// are immutable and shared by reference; build a new one to change one.
type Row struct {
	// p is the header cell: its pointer word is the *shape, and the
	// shape's len(names) values follow it. nil for no attributes.
	p *Value
}

// cellSize is the stride from one cell of a row to the next.
const cellSize = unsafe.Sizeof(Value{})

// newRow allocates a row of shape s and returns it with its value
// cells, for the caller to fill before the row is shared.
func newRow(s *shape) (Row, []Value) {
	cells := make([]Value, 1+len(s.names))
	cells[0].ptr = unsafe.Pointer(s)
	return Row{p: &cells[0]}, cells[1:]
}

func (r Row) shape() *shape { return (*shape)(r.p.ptr) }

// vals returns the row's values in shape order; nil for no attributes.
func (r Row) vals() []Value {
	if r.p == nil {
		return nil
	}
	return unsafe.Slice(r.p, 1+len(r.shape().names))[1:]
}

// cell returns the value in cell i (1-based: cell 0 is the header).
func (r Row) cell(i int32) Value {
	return *(*Value)(unsafe.Add(unsafe.Pointer(r.p), uintptr(i)*cellSize))
}

// RowOf returns m as a row. m is only read.
func RowOf(m map[string]Value) Row {
	if len(m) == 0 {
		return Row{}
	}
	var nbuf [16]string
	names := nbuf[:0]
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	var kbuf [256]byte
	key := shapeKey(kbuf[:0], names)
	s := shapeFor(key)
	row, vals := newRow(s)
	for i, name := range s.names {
		vals[i] = m[name]
	}
	return row
}

// Shape is an interned attribute-name set, for building many rows of
// the same names from maps (a plan binding event arguments).
type Shape struct{ s *shape }

// ShapeOf returns the shape of names (distinct, and at least one),
// which it sorts in place.
func ShapeOf(names []string) Shape {
	slices.Sort(names)
	var kbuf [256]byte
	return Shape{shapeFor(shapeKey(kbuf[:0], names))}
}

// Row returns m's values of the shape's names as a row: one allocation
// and a map probe per name, no sort and no intern lookup. If m lacks a
// name it returns RowOf(m), which lacks it too.
func (s Shape) Row(m map[string]Value) Row {
	row, vals := newRow(s.s)
	for i, name := range s.s.names {
		v, ok := m[name]
		if !ok {
			return RowOf(m)
		}
		vals[i] = v
	}
	return row
}

// Len returns the number of attributes.
func (r Row) Len() int {
	if r.p == nil {
		return 0
	}
	return len(r.shape().names)
}

// At returns the value of attribute a, if the row has it.
func (r Row) At(a Attr) (Value, bool) {
	if r.p == nil {
		return Value{}, false
	}
	s, i := r.shape(), int32(0)
	if uint(a) < uint(len(s.slots)) {
		i = s.slots[a]
	} else if len(s.far) > 0 {
		i = s.farCell(a)
	}
	if i == 0 {
		return Value{}, false
	}
	return r.cell(i), true
}

// Get returns the named attribute's value, if the row has it.
func (r Row) Get(name string) (Value, bool) {
	if r.p != nil {
		if i := r.shape().index(name); i >= 0 {
			return r.cell(int32(i + 1)), true
		}
	}
	return Value{}, false
}

// Range calls fn for every attribute in ascending name order.
func (r Row) Range(fn func(name string, v Value)) {
	for i, v := range r.vals() {
		fn(r.shape().names[i], v)
	}
}

// Map returns the attributes as a new map, the caller's to keep: this is
// where a row leaves the engine.
func (r Row) Map() map[string]Value {
	m := make(map[string]Value, r.Len())
	r.Range(func(name string, v Value) { m[name] = v })
	return m
}

// Update returns the row with every attribute of changes set to its
// value, a null value removing the attribute instead. An update that
// only changes values keeps the row's shape.
func (r Row) Update(changes map[string]Value) Row {
	if next, ok := r.patch(changes); ok {
		return next
	}
	m := r.Map()
	for k, v := range changes {
		if v.IsNull() {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
	return RowOf(m)
}

// patch is Update for changes that keep the shape; false, before
// allocating, when one adds or removes an attribute.
func (r Row) patch(changes map[string]Value) (Row, bool) {
	if r.p == nil {
		return r, false
	}
	s := r.shape()
	for k, v := range changes {
		if (s.index(k) >= 0) == v.IsNull() {
			return r, false
		}
	}
	next, vals := newRow(s)
	copy(vals, r.vals())
	for k, v := range changes {
		if i := s.index(k); i >= 0 {
			vals[i] = v
		}
	}
	return next, true
}

// AppendRow appends r to dst in EncodeMap's format: the bytes are
// EncodeMap(dst, r.Map())'s.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Len()))
	for i, v := range r.vals() {
		name := r.shape().names[i]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = v.AppendBinary(dst)
	}
	return dst
}

// DecodeRow decodes an attribute map written by EncodeMap or AppendRow
// from the front of b as a row, returning it and the bytes consumed.
// Both write names strictly ascending, so input whose names are out of
// order or repeated is corrupt.
func DecodeRow(b []byte) (Row, int, error) {
	cnt, n := binary.Uvarint(b)
	// Each entry takes at least two bytes (key length + kind tag), so a
	// count beyond the remaining input is corrupt — reject before
	// allocating.
	if n <= 0 || cnt > uint64(len(b)-n) {
		return Row{}, 0, fmt.Errorf("datum: truncated map header")
	}
	if cnt == 0 {
		return Row{}, n, nil
	}
	vals := make([]Value, 1+cnt) // a header cell, then the values
	var kbuf [256]byte
	key := kbuf[:0]
	var prev []byte
	for i := 1; i < len(vals); i++ {
		l, k := binary.Uvarint(b[n:])
		if k <= 0 || l > uint64(len(b)-n-k) {
			return Row{}, 0, fmt.Errorf("datum: truncated map key")
		}
		name := b[n+k : n+k+int(l)]
		if i > 1 && bytes.Compare(prev, name) >= 0 {
			return Row{}, 0, fmt.Errorf("datum: map key %q out of order", name)
		}
		prev = name
		key = binary.AppendUvarint(key, l)
		key = append(key, name...)
		n += k + int(l)
		v, m, err := DecodeBinary(b[n:])
		if err != nil {
			return Row{}, 0, fmt.Errorf("datum: map value for %q: %w", name, err)
		}
		vals[i] = v
		n += m
	}
	vals[0].ptr = unsafe.Pointer(shapeFor(key))
	return Row{p: &vals[0]}, n, nil
}
