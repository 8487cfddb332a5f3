package storage_test

// TestRowsMatchMapModel holds the shape-addressed rows against a model
// that keeps every object as a plain map, through the Object Manager
// that builds them: random creates, modifies (a null value removes the
// attribute), deletes, nested commits and aborts, and a class dropped
// and defined again with other attributes. After every step each read
// path must show the model's state to the innermost open transaction.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
)

// rowModel is one transaction level's view: live objects and class
// attribute lists.
type rowModel struct {
	objs    map[datum.OID]rowModelObj
	classes map[string][]string
}

type rowModelObj struct {
	class string
	attrs map[string]datum.Value
}

func (m rowModel) clone() rowModel {
	c := rowModel{objs: map[datum.OID]rowModelObj{}, classes: maps.Clone(m.classes)}
	for oid, o := range m.objs {
		c.objs[oid] = rowModelObj{o.class, maps.Clone(o.attrs)}
	}
	return c
}

// rowKinds fixes each attribute name's kind; classes draw from these.
var rowKinds = map[string]datum.Kind{
	"a": datum.KindInt, "b": datum.KindString, "c": datum.KindFloat,
	"d": datum.KindInt, "e": datum.KindString, "f": datum.KindFloat,
}

// rowClassAttrs are the attribute lists each class cycles through when
// it is dropped and defined again.
var rowClassAttrs = map[string][][]string{
	"K": {{"a", "b", "c"}, {"b", "d", "e"}, {"a", "f"}},
	"L": {{"c", "d"}, {"a", "b", "e", "f"}},
}

func rowValue(rng *rand.Rand, kind datum.Kind) datum.Value {
	switch kind {
	case datum.KindInt:
		return datum.Int(int64(rng.Intn(7) - 3))
	case datum.KindFloat:
		return datum.Float(float64(rng.Intn(9)) / 4)
	default:
		return datum.Str([]string{"", "x", "yy", "\xff"}[rng.Intn(4)])
	}
}

func TestRowsMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runRowsModel(t, seed) })
	}
}

func runRowsModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tm, _ := txn.NewSystem()
	st, err := storage.Open(tm, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm.Register(st)
	m := object.NewManager(st, nil)

	committed := rowModel{objs: map[datum.OID]rowModelObj{}, classes: map[string][]string{}}
	generation := map[string]int{}
	define := func(tx *txn.Txn, model rowModel, class string) {
		names := rowClassAttrs[class][generation[class]%len(rowClassAttrs[class])]
		c := object.Class{Name: class}
		for _, n := range names {
			c.Attrs = append(c.Attrs, object.AttrDef{Name: n, Kind: rowKinds[n]})
		}
		if err := m.DefineClass(tx, c); err != nil {
			t.Fatal(err)
		}
		model.classes[class] = names
	}
	tx := tm.Begin()
	for class := range rowClassAttrs {
		define(tx, committed, class)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// stack holds the open transactions, outermost first, and views the
	// model state each one sees.
	var stack []*txn.Txn
	var views []rowModel
	view := func() rowModel {
		if len(views) == 0 {
			return committed
		}
		return views[len(views)-1]
	}
	begin := func() {
		if len(stack) == 0 {
			stack = append(stack, tm.Begin())
		} else {
			child, err := stack[len(stack)-1].Child()
			if err != nil {
				t.Fatal(err)
			}
			stack = append(stack, child)
		}
		views = append(views, view().clone())
	}
	end := func(commit bool) {
		top, v := stack[len(stack)-1], views[len(views)-1]
		stack, views = stack[:len(stack)-1], views[:len(views)-1]
		var err error
		if commit {
			err = top.Commit()
		} else {
			err = top.Abort()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !commit {
			return
		}
		if len(views) == 0 {
			committed = v
		} else {
			views[len(views)-1] = v
		}
	}
	var oids []datum.OID
	pick := func(model rowModel) (datum.OID, bool) {
		var live []datum.OID
		for oid := range model.objs {
			live = append(live, oid)
		}
		slices.Sort(live)
		if len(live) == 0 {
			return 0, false
		}
		return live[rng.Intn(len(live))], true
	}

	for step := 0; step < 400; step++ {
		r := rng.Intn(100)
		if len(stack) == 0 && r < 80 {
			begin()
		}
		cur := func() *txn.Txn { return stack[len(stack)-1] }
		switch {
		case r < 8:
			if len(stack) < 3 {
				begin()
			}
		case r < 30:
			model := view()
			class := []string{"K", "L"}[rng.Intn(2)]
			attrs := map[string]datum.Value{}
			for _, n := range model.classes[class] {
				if rng.Intn(4) != 0 {
					attrs[n] = rowValue(rng, rowKinds[n])
				}
			}
			oid, err := m.Create(cur(), class, attrs)
			if err != nil {
				t.Fatalf("step %d: create: %v", step, err)
			}
			oids = append(oids, oid)
			model.objs[oid] = rowModelObj{class, attrs}
		case r < 55:
			model := view()
			oid, ok := pick(model)
			if !ok {
				break
			}
			o := model.objs[oid]
			updates := map[string]datum.Value{}
			for _, n := range model.classes[o.class] {
				switch rng.Intn(4) {
				case 0:
					updates[n] = datum.Null()
				case 1:
					updates[n] = rowValue(rng, rowKinds[n])
				}
			}
			if err := m.Modify(cur(), oid, updates); err != nil {
				t.Fatalf("step %d: modify %v: %v", step, oid, err)
			}
			for k, v := range updates {
				if v.IsNull() {
					delete(o.attrs, k)
				} else {
					o.attrs[k] = v
				}
			}
		case r < 63:
			model := view()
			if oid, ok := pick(model); ok {
				if err := m.Delete(cur(), oid); err != nil {
					t.Fatalf("step %d: delete %v: %v", step, oid, err)
				}
				delete(model.objs, oid)
			}
		case r < 75:
			end(true)
		case r < 80:
			end(false)
		case len(stack) == 0:
			// Drop a class and define it again with other attributes, in
			// one top-level transaction: its extent must be empty first.
			begin()
			model, class := view(), []string{"K", "L"}[rng.Intn(2)]
			for oid, o := range model.objs {
				if o.class == class {
					if err := m.Delete(cur(), oid); err != nil {
						t.Fatal(err)
					}
					delete(model.objs, oid)
				}
			}
			if err := m.DropClass(cur(), class); err != nil {
				t.Fatalf("step %d: drop %s: %v", step, class, err)
			}
			generation[class]++
			define(cur(), model, class)
			end(true)
		}
		var reader *txn.Txn
		if len(stack) > 0 {
			reader = cur()
		} else {
			reader = tm.Begin()
		}
		checkRowsModel(t, step, m, st, reader, view(), oids)
		if len(stack) == 0 {
			reader.Commit()
		}
	}
	if generation["K"]+generation["L"] == 0 {
		t.Fatal("no class was dropped and defined again")
	}
	if st.Stats().Shapes == 0 {
		t.Fatal("Stats.Shapes = 0 after storing rows")
	}
}

// checkRowsModel compares every read path, as tx sees it, with the
// model: Get, the store's Get through the test-only AsMap, Fetch, and
// the whole-class and range scans.
func checkRowsModel(t *testing.T, step int, m *object.Manager, st *storage.Store, tx *txn.Txn, model rowModel, oids []datum.OID) {
	t.Helper()
	enc := func(attrs map[string]datum.Value) []byte { return datum.EncodeMap(nil, attrs) }
	fail := func(path string, oid datum.OID, got map[string]datum.Value) {
		t.Fatalf("step %d: %s of %v = %v, model %v", step, path, oid, got, model.objs[oid].attrs)
	}
	r := m.Reader(tx)
	for _, oid := range oids {
		want, live := model.objs[oid]
		rec, err := m.Get(tx, oid)
		if (err == nil) != live {
			t.Fatalf("step %d: Get(%v) err=%v, model live=%v", step, oid, err, live)
		}
		obj, ok := st.Get(tx.ID(), oid)
		class, row, fetched := r.Fetch(oid)
		if ok != live || fetched != live {
			t.Fatalf("step %d: %v live in store %v, Fetch %v, model %v", step, oid, ok, fetched, live)
		}
		if !live {
			continue
		}
		switch {
		case rec.Class != want.class || !bytes.Equal(enc(rec.Attrs), enc(want.attrs)):
			fail("Get", oid, rec.Attrs)
		case !bytes.Equal(enc(obj.AsMap()), enc(want.attrs)):
			fail("AsMap", oid, obj.AsMap())
		case class != want.class || !bytes.Equal(datum.AppendRow(nil, row), enc(want.attrs)):
			fail("Fetch", oid, row.Map())
		}
	}
	for class := range rowClassAttrs {
		var want []datum.OID
		for oid, o := range model.objs {
			if o.class == class {
				want = append(want, oid)
			}
		}
		slices.Sort(want)
		visit := func(path string, got *[]datum.OID) func(datum.OID, datum.Row) bool {
			return func(oid datum.OID, row datum.Row) bool {
				*got = append(*got, oid)
				if !bytes.Equal(datum.AppendRow(nil, row), enc(model.objs[oid].attrs)) {
					fail(path, oid, row.Map())
				}
				return true
			}
		}
		var scanned, ranged []datum.OID
		if err := r.ScanClass(class, visit("ScanClass", &scanned)); err != nil {
			t.Fatal(err)
		}
		rs := r.(plan.RangeScanner)
		lsn, cuts, release := rs.PinRanges(class, 4)
		lo := datum.OID(0)
		for _, hi := range append(cuts, 0) {
			if err := rs.ScanClassRange(class, lo, hi, lsn, visit("ScanClassRange", &ranged)); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		release()
		if !slices.Equal(scanned, want) || !slices.Equal(ranged, want) {
			t.Fatalf("step %d: %s scan %v, range scans %v, model %v", step, class, scanned, ranged, want)
		}
	}
}
