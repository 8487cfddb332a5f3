package datum

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestValueLayout: a Value is at most 32 bytes, and the strings and
// lists it points into stay alive and intact through collections even
// when nothing else references their memory. Under -race the unsafe
// conversions are also checked (checkptr).
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Fatalf("sizeof(Value) = %d, want <= 32", n)
	}
	build := func(i int) (Value, Value) {
		// Scratch buffers: the only references to their memory are the
		// values built from them.
		buf := []byte(fmt.Sprintf("scratch-%04d-%s", i, "xyz"))
		elems := make([]Value, 3)
		elems[0], elems[1], elems[2] = Str(string(buf)), Int(int64(i)), List(Str(string(buf[:8])))
		return Str(string(buf)), List(elems...)
	}
	var strs, lists []Value
	for i := 0; i < 200; i++ {
		s, l := build(i)
		strs, lists = append(strs, s), append(lists, l)
	}
	for round := 0; round < 3; round++ {
		runtime.GC()
		// Churn the heap so freed memory would be reused.
		junk := make([][]byte, 0, 1000)
		for i := 0; i < 1000; i++ {
			junk = append(junk, bytes.Repeat([]byte{0xAA}, 24))
		}
		runtime.KeepAlive(junk)
		for i := range strs {
			ws, wl := build(i)
			if !Equal(strs[i], ws) || strs[i].AsString() != ws.AsString() {
				t.Fatalf("round %d: string %d = %q, want %q", round, i, strs[i].AsString(), ws.AsString())
			}
			if !Equal(lists[i], wl) {
				t.Fatalf("round %d: list %d = %v, want %v", round, i, lists[i], wl)
			}
		}
	}
	if Str("").AsString() != "" || len(List().AsList()) != 0 || Int(7).AsString() != "" || Str("ab").AsInt() != 0 {
		t.Fatal("empty or mismatched-kind accessors misbehave")
	}
}

// TestIdentical: same kind and payload, strings and lists by content.
func TestIdentical(t *testing.T) {
	ab := string([]byte{'a', 'b'})
	for _, tc := range []struct {
		a, b Value
		want bool
	}{
		{Null(), Null(), true},
		{Int(1), Int(1), true},
		{Int(1), Float(1), false},
		{Float(0), Float(math.Copysign(0, -1)), false},
		{Str("ab"), Str(ab), true},
		{Str("ab"), Str("ac"), false},
		{List(Str("ab"), Int(2)), List(Str(ab), Int(2)), true},
		{List(Str("ab"), Int(2)), List(Str("ab"), Float(2)), false},
		{List(), List(), true},
	} {
		if got := Identical(tc.a, tc.b); got != tc.want {
			t.Errorf("Identical(%v, %v) = %v", tc.a, tc.b, got)
		}
	}
}

func TestRowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"a", "b", "bb", "c", "qty", "", "\xff"}
	for trial := 0; trial < 500; trial++ {
		m := map[string]Value{}
		for _, n := range names {
			if rng.Intn(2) == 0 {
				m[n] = []Value{Null(), Int(int64(rng.Intn(5))), Str("s"), Float(1.5), List(Int(1))}[rng.Intn(5)]
			}
		}
		r := RowOf(m)
		if r.Len() != len(m) {
			t.Fatalf("%v: Len %d", m, r.Len())
		}
		for _, n := range append(names, "missing") {
			want, wok := m[n]
			got, gok := r.Get(n)
			at, aok := r.At(AttrOf(n))
			if gok != wok || aok != wok || !Equal(got, want) || !Equal(at, want) {
				t.Fatalf("%v[%q]: Get %v %v, At %v %v", m, n, got, gok, at, aok)
			}
		}
		enc := EncodeMap(nil, m)
		if !bytes.Equal(AppendRow(nil, r), enc) {
			t.Fatalf("%v: AppendRow differs from EncodeMap", m)
		}
		back, n, err := DecodeRow(enc)
		if err != nil || n != len(enc) || !bytes.Equal(AppendRow(nil, back), enc) {
			t.Fatalf("%v: DecodeRow = %v, %d, %v", m, back.Map(), n, err)
		}
		if len(m) > 0 && back.shape() != r.shape() {
			t.Fatalf("%v: decoding did not reuse the interned shape", m)
		}
		// Update against the same edit on the map.
		changes := map[string]Value{}
		for _, n := range names {
			switch rng.Intn(4) {
			case 0:
				changes[n] = Null()
			case 1:
				changes[n] = Int(9)
			}
		}
		next := r.Update(changes)
		for k, v := range changes {
			if v.IsNull() {
				delete(m, k)
			} else {
				m[k] = v
			}
		}
		if !bytes.Equal(AppendRow(nil, next), EncodeMap(nil, m)) {
			t.Fatalf("Update(%v) = %v, want %v", changes, next.Map(), m)
		}
	}
}

// TestDecodeRowUnsorted: EncodeMap and AppendRow write names strictly
// ascending, so input whose names are out of order or repeated is
// corrupt to DecodeRow, though DecodeMap reads it.
func TestDecodeRowUnsorted(t *testing.T) {
	for _, names := range [][]string{{"b", "a"}, {"a", "a"}, {"a", "c", "b"}} {
		b := []byte{byte(len(names))}
		for i, k := range names {
			b = append(b, byte(len(k)))
			b = append(b, k...)
			b = Int(int64(i)).AppendBinary(b)
		}
		if _, _, err := DecodeMap(b); err != nil {
			t.Fatalf("%v: DecodeMap: %v", names, err)
		}
		if r, n, err := DecodeRow(b); err == nil {
			t.Fatalf("%v: DecodeRow accepted it: %d bytes as %v", names, n, r.Map())
		}
	}
}

// TestShapesAreShared: rows with the same names share one shape, so
// the interned count does not grow with the number of rows.
func TestShapesAreShared(t *testing.T) {
	RowOf(map[string]Value{"shared_x": Int(0), "shared_y": Int(0)})
	before := Shapes()
	for i := 0; i < 100; i++ {
		r := RowOf(map[string]Value{"shared_x": Int(int64(i)), "shared_y": Str("v")})
		r = r.Update(map[string]Value{"shared_x": Int(-1)})
		if _, _, err := DecodeRow(AppendRow(nil, r)); err != nil {
			t.Fatal(err)
		}
	}
	if after := Shapes(); after != before {
		t.Fatalf("Shapes went %d -> %d over rows of one shape", before, after)
	}
}

// TestInternTablesAreBounded: names past the dense slot table are still
// found, and a shape table past maxShapes starts over without touching
// the rows already built.
func TestInternTablesAreBounded(t *testing.T) {
	for i := 0; i < denseAttrs+10; i++ {
		AttrOf(fmt.Sprintf("bound_%05d", i))
	}
	m := map[string]Value{"bound_00000": Int(1), "bound_01030": Int(2), "bound_01031": Str("x"), "bound_99999": Int(3)}
	r := RowOf(m)
	if len(r.shape().far) == 0 || len(r.shape().slots) > denseAttrs {
		t.Fatalf("shape of %d names past the dense table: %d slots, %d far", len(m), len(r.shape().slots), len(r.shape().far))
	}
	for k, v := range m {
		if got, ok := r.At(AttrOf(k)); !ok || !Equal(got, v) {
			t.Fatalf("At(%s) = %v %v, want %v", k, got, ok, v)
		}
	}
	if _, ok := r.At(AttrOf("bound_01029")); ok {
		t.Fatal("At found an attribute the row lacks")
	}
	var rows []Row
	for i := 0; i < maxShapes+10; i++ {
		rows = append(rows, RowOf(map[string]Value{fmt.Sprintf("many_%d", i): Int(int64(i)), "bound_00000": Int(0)}))
	}
	if n := Shapes(); n > maxShapes {
		t.Fatalf("Shapes = %d past the bound %d", n, maxShapes)
	}
	for i, row := range rows {
		if v, ok := row.Get(fmt.Sprintf("many_%d", i)); !ok || v.AsInt() != int64(i) {
			t.Fatalf("row %d reads %v %v after the shape table started over", i, v, ok)
		}
	}
}

// TestInternConcurrent: goroutines interning the same names and shapes
// at once, each in its own order, agree on every id and shape. Under
// -race this checks the lock-free read path. Once settled, a lookup
// allocates nothing: AttrOf of a known name allocates nothing, and
// decoding a row of a known shape allocates only its cells.
func TestInternConcurrent(t *testing.T) {
	const workers, names = 4, 300
	ids := make([]map[string]Attr, workers)
	shps := make([]map[string]*shape, workers)
	var wg sync.WaitGroup
	for w := range workers {
		ids[w], shps[w] = map[string]Attr{}, map[string]*shape{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := fmt.Sprintf("conc_%d", (i*7+w*13)%names)
				ids[w][name] = AttrOf(name)
				shps[w][name] = RowOf(map[string]Value{name: Int(1), "conc_k": Int(2)}).shape()
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for name, id := range ids[0] {
			if ids[w][name] != id || shps[w][name] != shps[0][name] {
				t.Fatalf("%s: worker %d got id %d and shape %p, worker 0 id %d and shape %p",
					name, w, ids[w][name], shps[w][name], id, shps[0][name])
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { AttrOf("conc_7") }); a != 0 {
		t.Fatalf("AttrOf of a known name: %v allocations", a)
	}
	enc := EncodeMap(nil, map[string]Value{"conc_7": Int(1), "conc_k": Int(2)})
	if a := testing.AllocsPerRun(100, func() { DecodeRow(enc) }); a != 1 {
		t.Fatalf("DecodeRow of a known shape: %v allocations, want 1", a)
	}
}

// FuzzDecodeRow: what DecodeRow accepts DecodeMap reads as the same
// attributes from the same bytes, and the row's lookups agree with the
// map's. (DecodeMap also reads names out of order, which DecodeRow
// rejects as corrupt.)
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeMap(nil, map[string]Value{"qty": Int(7), "sym": Str("IBM"), "l": List(Float(1.5), Null())}))
	f.Add(EncodeMap(nil, map[string]Value{}))
	f.Add([]byte{2, 1, 'b', byte(KindInt), 2, 1, 'a', byte(KindInt), 4}) // unsorted
	f.Add([]byte{2, 1, 'a', byte(KindInt), 2, 1, 'a', byte(KindInt), 4}) // duplicate
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		row, n, err := DecodeRow(b)
		if err != nil {
			return
		}
		m, mn, merr := DecodeMap(b)
		if merr != nil {
			t.Fatalf("DecodeRow read %v, DecodeMap failed: %v", row.Map(), merr)
		}
		if n != mn || !bytes.Equal(AppendRow(nil, row), EncodeMap(nil, m)) {
			t.Fatalf("DecodeRow read %d bytes as %v, DecodeMap %d as %v", n, row.Map(), mn, m)
		}
		for k, v := range m {
			got, ok := row.Get(k)
			at, aok := row.At(AttrOf(k))
			if !ok || !aok || !bytes.Equal(got.AppendBinary(nil), v.AppendBinary(nil)) || !bytes.Equal(at.AppendBinary(nil), v.AppendBinary(nil)) {
				t.Fatalf("%q: Get %v %v, At %v %v, map %v", k, got, ok, at, aok, v)
			}
		}
	})
}
