package object

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/event"
	"repro/internal/lock"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/txn"
)

// sinkRec records signaled events.
type sinkRec struct {
	mu     sync.Mutex
	events []event.Op
	last   map[string]datum.Value
}

func (s *sinkRec) SignalDatabase(op event.Op, class string, tx lock.TxnID, b map[string]datum.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, op)
	s.last = b
	return nil
}

func (s *sinkRec) ops() []event.Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]event.Op(nil), s.events...)
}

func setup(t *testing.T) (*Manager, *txn.Manager, *sinkRec) {
	t.Helper()
	tm, _ := txn.NewSystem()
	st, err := storage.Open(tm, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm.Register(st)
	sink := &sinkRec{}
	return NewManager(st, sink), tm, sink
}

var stockClass = Class{
	Name: "Stock",
	Attrs: []AttrDef{
		{Name: "symbol", Kind: datum.KindString, Required: true},
		{Name: "price", Kind: datum.KindFloat, Indexed: true},
		{Name: "volume", Kind: datum.KindInt},
	},
}

func mustDefine(t *testing.T, m *Manager, tm *txn.Manager, c Class) {
	t.Helper()
	tx := tm.Begin()
	if err := m.DefineClass(tx, c); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDefineAndGetClass(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	defer tx.Commit()
	c, err := m.GetClass(tx, "Stock")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Stock" || len(c.Attrs) != 3 {
		t.Fatalf("class = %+v", c)
	}
	if a, ok := c.Attr("price"); !ok || !a.Indexed || a.Kind != datum.KindFloat {
		t.Fatalf("price attr = %+v", a)
	}
	if _, err := m.GetClass(tx, "Nope"); !errors.Is(err, ErrNoSuchClass) {
		t.Fatalf("missing class: %v", err)
	}
}

func TestDefineClassValidation(t *testing.T) {
	m, tm, _ := setup(t)
	tx := tm.Begin()
	defer tx.Abort()
	if err := m.DefineClass(tx, Class{}); !errors.Is(err, ErrSchema) {
		t.Fatalf("empty name: %v", err)
	}
	if err := m.DefineClass(tx, Class{Name: "X", Attrs: []AttrDef{{Name: "a"}, {Name: "a"}}}); !errors.Is(err, ErrSchema) {
		t.Fatalf("dup attr: %v", err)
	}
}

func TestDuplicateClassRejected(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	defer tx.Abort()
	if err := m.DefineClass(tx, stockClass); !errors.Is(err, ErrClassExists) {
		t.Fatalf("want ErrClassExists, got %v", err)
	}
}

func TestDDLTransactional(t *testing.T) {
	m, tm, _ := setup(t)
	tx := tm.Begin()
	if err := m.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	// Definer sees it; a stranger does not.
	if _, err := m.lookupClass(tx, "Stock"); err != nil {
		t.Fatal("definer cannot see own class")
	}
	other := tm.Begin()
	if _, err := m.lookupClass(other, "Stock"); err == nil {
		t.Fatal("uncommitted class visible to stranger")
	}
	other.Commit()
	tx.Abort()
	// After abort, nobody sees it.
	check := tm.Begin()
	defer check.Commit()
	if _, err := m.lookupClass(check, "Stock"); err == nil {
		t.Fatal("aborted class definition survived")
	}
	// And the name can be reused.
	tx2 := tm.Begin()
	if err := m.DefineClass(tx2, stockClass); err != nil {
		t.Fatalf("redefine after abort: %v", err)
	}
	tx2.Commit()
}

func TestCreateValidates(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	defer tx.Abort()
	// Missing required attribute.
	if _, err := m.Create(tx, "Stock", map[string]datum.Value{"price": datum.Float(1)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("missing required: %v", err)
	}
	// Unknown attribute.
	if _, err := m.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("X"), "bogus": datum.Int(1)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("unknown attr: %v", err)
	}
	// Kind mismatch.
	if _, err := m.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Int(5)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("kind mismatch: %v", err)
	}
	// Unknown class.
	if _, err := m.Create(tx, "Nope", nil); !errors.Is(err, ErrNoSuchClass) {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestCreateModifyDeleteLifecycle(t *testing.T) {
	m, tm, sink := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	oid, err := m.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str("XRX"), "price": datum.Float(48),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.Get(tx, oid)
	if err != nil || rec.Attrs["symbol"].AsString() != "XRX" {
		t.Fatalf("get: %v %v", rec, err)
	}
	if err := m.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	rec, _ = m.Get(tx, oid)
	if rec.Attrs["price"].AsFloat() != 50 {
		t.Fatalf("modify lost: %v", rec.Attrs)
	}
	if err := m.Delete(tx, oid); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(tx, oid); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("get after delete: %v", err)
	}
	tx.Commit()

	ops := sink.ops()
	want := []event.Op{event.OpDefineClass, event.OpCreate, event.OpModify, event.OpDelete}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", ops, want)
	}
}

func TestModifyEventCarriesOldAndNew(t *testing.T) {
	m, tm, sink := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	oid, _ := m.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str("XRX"), "price": datum.Float(48),
	})
	m.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)})
	tx.Commit()
	b := sink.last
	if b["old_price"].AsFloat() != 48 || b["new_price"].AsFloat() != 50 {
		t.Fatalf("bindings = %v", b)
	}
	if b["class"].AsString() != "Stock" || b["oid"].AsOID() != oid {
		t.Fatalf("bindings = %v", b)
	}
}

func TestSystemClassesEmitNoEvents(t *testing.T) {
	m, tm, sink := setup(t)
	mustDefine(t, m, tm, stockClass) // defineClass event IS emitted for Stock
	n := len(sink.ops())
	tx := tm.Begin()
	// Direct writes to a __-class (as the rule manager does).
	mustNoErr(t, m.DefineClass(tx, Class{Name: "__sys", Attrs: []AttrDef{{Name: "x", Kind: datum.KindInt}}}))
	if _, err := m.Create(tx, "__sys", map[string]datum.Value{"x": datum.Int(1)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if len(sink.ops()) != n {
		t.Fatalf("system class emitted events: %v", sink.ops()[n:])
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestNumericCoercion(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	defer tx.Commit()
	// Int literal into a float attribute: stored as float.
	oid, err := m.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str("GM"), "price": datum.Int(45),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := m.Get(tx, oid)
	if rec.Attrs["price"].Kind() != datum.KindFloat {
		t.Fatalf("price kind = %v", rec.Attrs["price"].Kind())
	}
}

func TestIsolationBetweenTransactions(t *testing.T) {
	// MVCC reads never block and never see uncommitted data: a
	// plain Get of another transaction's uncommitted create returns
	// ErrNoSuchObject immediately, and sees the object once the
	// creator commits. GetForUpdate, the locking read, still blocks
	// on the creator's exclusive lock (strict 2PL for writers).
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	t1 := tm.Begin()
	oid, _ := m.Create(t1, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX")})
	t2 := tm.Begin()
	if _, err := m.Get(t2, oid); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("uncommitted create visible to snapshot read: %v", err)
	}
	type getResult struct {
		rec storage.Record
		err error
	}
	done := make(chan getResult, 1)
	go func() {
		rec, err := m.GetForUpdate(t2, oid)
		done <- getResult{rec, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("locking read did not block on uncommitted create: %v %v", r.rec, r.err)
	case <-time.After(30 * time.Millisecond):
	}
	t1.Commit()
	r := <-done
	if r.err != nil || r.rec.Attrs["symbol"].AsString() != "XRX" {
		t.Fatalf("after creator commit: %v %v", r.rec, r.err)
	}
	if rec, err := m.Get(t2, oid); err != nil || rec.Attrs["symbol"].AsString() != "XRX" {
		t.Fatalf("committed create not visible to snapshot read: %v %v", rec, err)
	}
	t2.Commit()
}

func TestDropClass(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	oid, _ := m.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX")})
	if err := m.DropClass(tx, "Stock"); !errors.Is(err, ErrClassInUse) {
		t.Fatalf("drop non-empty: %v", err)
	}
	m.Delete(tx, oid)
	if err := m.DropClass(tx, "Stock"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	check := tm.Begin()
	defer check.Commit()
	if _, err := m.GetClass(check, "Stock"); !errors.Is(err, ErrNoSuchClass) {
		t.Fatalf("dropped class still there: %v", err)
	}
}

func TestReaderScanAndQuery(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	for i, sym := range []string{"XRX", "IBM", "DEC"} {
		if _, err := m.Create(tx, "Stock", map[string]datum.Value{
			"symbol": datum.Str(sym), "price": datum.Float(float64(40 + i*40)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	q := tm.Begin()
	defer q.Commit()
	res, err := query.Eval(query.MustParse("select s.symbol from Stock s where s.price >= 80"), m.Reader(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestReaderUsesIndex(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	for i := 0; i < 100; i++ {
		m.Create(tx, "Stock", map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("S%03d", i)), "price": datum.Float(float64(i)),
		})
	}
	tx.Commit()
	before := m.store.Stats()
	q := tm.Begin()
	defer q.Commit()
	res, err := query.Eval(query.MustParse("select s from Stock s where s.price = 42"), m.Reader(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	after := m.store.Stats()
	if after.IndexProbes != before.IndexProbes+1 {
		t.Fatalf("index probes %d -> %d; index not used", before.IndexProbes, after.IndexProbes)
	}
	if after.Scans != before.Scans {
		t.Fatalf("full scan happened despite index")
	}
}

func TestWriteConflictBlocksAndSerializes(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	seed := tm.Begin()
	oid, _ := m.Create(seed, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX"), "price": datum.Float(10)})
	seed.Commit()

	t1 := tm.Begin()
	if err := m.Modify(t1, oid, map[string]datum.Value{"price": datum.Float(20)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	t2 := tm.Begin()
	go func() { done <- m.Modify(t2, oid, map[string]datum.Value{"price": datum.Float(30)}) }()
	select {
	case err := <-done:
		t.Fatalf("conflicting modify did not block: %v", err)
	default:
	}
	t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t2.Commit()
	check := tm.Begin()
	defer check.Commit()
	rec, _ := m.Get(check, oid)
	if rec.Attrs["price"].AsFloat() != 30 {
		t.Fatalf("final price = %v", rec.Attrs["price"])
	}
}

func TestNestedTransactionDML(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	parent := tm.Begin()
	oid, _ := m.Create(parent, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX"), "price": datum.Float(10)})
	child, _ := parent.Child()
	if err := m.Modify(child, oid, map[string]datum.Value{"price": datum.Float(99)}); err != nil {
		t.Fatal(err)
	}
	child.Abort()
	rec, _ := m.Get(parent, oid)
	if rec.Attrs["price"].AsFloat() != 10 {
		t.Fatalf("child abort leaked: %v", rec.Attrs["price"])
	}
	child2, _ := parent.Child()
	m.Modify(child2, oid, map[string]datum.Value{"price": datum.Float(55)})
	child2.Commit()
	rec, _ = m.Get(parent, oid)
	if rec.Attrs["price"].AsFloat() != 55 {
		t.Fatalf("child commit lost: %v", rec.Attrs["price"])
	}
	parent.Commit()
}

func TestClassesListing(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, Class{Name: "Zebra"})
	mustDefine(t, m, tm, Class{Name: "Apple"})
	tx := tm.Begin()
	defer tx.Commit()
	cs, err := m.Classes(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Name != "Apple" || cs[1].Name != "Zebra" {
		t.Fatalf("classes = %v", cs)
	}
}

func TestNullClearsAttribute(t *testing.T) {
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, stockClass)
	tx := tm.Begin()
	defer tx.Commit()
	oid, _ := m.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str("XRX"), "volume": datum.Int(100),
	})
	if err := m.Modify(tx, oid, map[string]datum.Value{"volume": datum.Null()}); err != nil {
		t.Fatal(err)
	}
	rec, _ := m.Get(tx, oid)
	if _, ok := rec.Attrs["volume"]; ok {
		t.Fatal("null modify should clear the attribute")
	}
	// But clearing a required attribute is rejected.
	if err := m.Modify(tx, oid, map[string]datum.Value{"symbol": datum.Null()}); !errors.Is(err, ErrSchema) {
		t.Fatalf("clearing required: %v", err)
	}
}

func TestClassDecodingIsMemoizedPerDefinition(t *testing.T) {
	// The memo is keyed by the definition text, so it cannot leak one
	// transaction's view of a class name into another's: a redefinition
	// still uncommitted in tx2 validates tx2's creates against the new
	// attributes and everybody else's against the old.
	m, tm, _ := setup(t)
	mustDefine(t, m, tm, Class{Name: "C", Attrs: []AttrDef{{Name: "x", Kind: datum.KindInt}}})
	tx1 := tm.Begin()
	oid, err := m.Create(tx1, "C", map[string]datum.Value{"x": datum.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	tx1.Commit()

	// Empty the extent, then redefine with a different attribute.
	drop := tm.Begin()
	if err := m.Delete(drop, oid); err != nil {
		t.Fatal(err)
	}
	if err := m.DropClass(drop, "C"); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineClass(drop, Class{Name: "C", Attrs: []AttrDef{{Name: "y", Kind: datum.KindString}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(drop, "C", map[string]datum.Value{"y": datum.Str("new")}); err != nil {
		t.Fatalf("create against the uncommitted redefinition: %v", err)
	}
	if _, err := m.Create(drop, "C", map[string]datum.Value{"x": datum.Int(3)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("old attribute after redefinition: %v, want a schema error", err)
	}
	drop.Abort()
	after := tm.Begin()
	defer after.Commit()
	if _, err := m.Create(after, "C", map[string]datum.Value{"x": datum.Int(4)}); err != nil {
		t.Fatalf("create after the redefinition aborted: %v", err)
	}

	// A caller that edits what GetClass returned does not edit the
	// memoized definition.
	c, err := m.GetClass(after, "C")
	if err != nil {
		t.Fatal(err)
	}
	c.Attrs[0].Name = "mutated"
	if _, err := m.Create(after, "C", map[string]datum.Value{"x": datum.Int(5)}); err != nil {
		t.Fatalf("shared definition was mutated through GetClass: %v", err)
	}
}

func TestClassDecodingMemoIsBounded(t *testing.T) {
	m, tm, _ := setup(t)
	tx := tm.Begin()
	defer tx.Commit()
	for i := 0; i < maxDecodedClasses+10; i++ {
		name := fmt.Sprintf("C%d", i)
		if err := m.DefineClass(tx, Class{Name: name, Attrs: []AttrDef{{Name: "x", Kind: datum.KindInt}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Create(tx, name, map[string]datum.Value{"x": datum.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	m.decoded.Range(func(any, any) bool { n++; return true })
	if n == 0 || n > maxDecodedClasses {
		t.Fatalf("memo holds %d definitions, bound is %d", n, maxDecodedClasses)
	}
}
