// Package object implements the HiPAC Object Manager (§5.1 of the
// paper): object-oriented data management — class definitions, typed
// instances, and DDL/DML execution inside transactions. In the course
// of executing operations it obtains locks from the Transaction
// Manager and acts as an event detector, reporting database
// operations to the Rule Manager (synchronously, so the triggering
// operation is suspended while immediate rule firings run, per §6.2).
//
// Lock protocol (items are named "class/<name>", "extent/<class>",
// "obj/<oid>"), in the order each operation takes them:
//
//	DefineClass/DropClass  X class, X obj (the class record)
//	GetClass               S class
//	Create                 S class, X extent, X obj
//	Modify                 X obj, S class
//	Delete                 X obj, S class, X extent
//	GetForUpdate           X obj
//	Get, scans (queries)   none: they read committed versions at a
//	                       snapshot (see Get)
//
// Only writers take the extent lock; nothing takes it shared.
//
// Class definitions are stored as ordinary records (class "__class"),
// so DDL is transactional with the same visibility rules as data.
// Classes whose names start with "__" are system classes: they accept
// operations but emit no database events.
package object

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/event"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// MetaClass is the system class holding class definitions.
const MetaClass = "__class"

// Errors returned by object operations.
var (
	ErrNoSuchClass  = errors.New("object: no such class")
	ErrClassExists  = errors.New("object: class already exists")
	ErrNoSuchObject = errors.New("object: no such object")
	ErrSchema       = errors.New("object: schema violation")
	ErrClassInUse   = errors.New("object: class extent not empty")
)

// AttrDef declares one attribute of a class.
type AttrDef struct {
	Name     string     `json:"name"`
	Kind     datum.Kind `json:"kind"`
	Required bool       `json:"required,omitempty"`
	Indexed  bool       `json:"indexed,omitempty"`
}

// Class is a class (type) definition.
type Class struct {
	Name  string    `json:"name"`
	Attrs []AttrDef `json:"attrs"`
}

// Attr returns the definition of the named attribute.
func (c *Class) Attr(name string) (AttrDef, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return AttrDef{}, false
}

// EventSink receives database-operation events; the engine connects
// it to the event detectors.
type EventSink interface {
	// SignalDatabase reports an operation; a non-nil error propagates
	// to the caller of the operation (the operation's storage effects
	// remain and are discarded when the caller aborts).
	SignalDatabase(op event.Op, class string, tx lock.TxnID, bindings map[string]datum.Value) error
}

// Manager is the Object Manager.
type Manager struct {
	store *storage.Store
	sink  EventSink

	mu      sync.RWMutex
	byName  map[string]datum.OID // class name -> schema record OID (may be uncommitted)
	sinkOff bool

	// decoded memoizes decodeClass on the encoded definition, which
	// every Create and Modify would otherwise unmarshal again. The key
	// is the JSON text, so the entry is right for whichever record —
	// committed or not, of whichever transaction — carries that text.
	// Its classes share their Attrs slices: read-only.
	decoded  sync.Map // definition JSON -> Class
	nDecoded atomic.Int64
}

// maxDecodedClasses bounds Manager.decoded; DDL churn past it empties
// the map and starts over.
const maxDecodedClasses = 1024

// NewManager returns an Object Manager over the store. Pass a nil
// sink to run without event detection (it can be set later with
// SetSink). Existing committed class definitions are loaded and their
// indexes registered.
func NewManager(store *storage.Store, sink EventSink) *Manager {
	m := &Manager{store: store, sink: sink, byName: map[string]datum.OID{}}
	// Rebuild the catalog index from the committed tier (recovery).
	// Index registration happens after the scan: it takes the store's
	// write lock, which must not nest inside the scan's read lock.
	var classes []Class
	store.ScanClass(0, MetaClass, func(rec storage.Object) bool {
		m.byName[strAttr(rec, "name")] = rec.OID
		if cls, err := decodeClass(rec); err == nil {
			classes = append(classes, cls)
		}
		return true
	})
	for _, cls := range classes {
		m.registerIndexes(cls)
	}
	return m
}

// SetSink installs the event sink (done by the engine after the
// detectors exist). Not safe to call concurrently with operations.
func (m *Manager) SetSink(sink EventSink) { m.sink = sink }

func (m *Manager) signal(op event.Op, class string, tx lock.TxnID, bindings map[string]datum.Value) error {
	if m.sink == nil || strings.HasPrefix(class, "__") {
		return nil
	}
	return m.sink.SignalDatabase(op, class, tx, bindings)
}

func (m *Manager) registerIndexes(c Class) {
	for _, a := range c.Attrs {
		if a.Indexed {
			m.store.RegisterIndex(c.Name, a.Name)
		}
	}
}

func encodeClass(c Class) (map[string]datum.Value, error) {
	def, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("object: encode class: %w", err)
	}
	return map[string]datum.Value{
		"name": datum.Str(c.Name),
		"def":  datum.Str(string(def)),
	}, nil
}

// strAttr returns the named string attribute of rec ("" if absent).
func strAttr(rec storage.Object, name string) string {
	v, _ := rec.Row.Get(name)
	return v.AsString()
}

func decodeClass(rec storage.Object) (Class, error) {
	var c Class
	if err := json.Unmarshal([]byte(strAttr(rec, "def")), &c); err != nil {
		return Class{}, fmt.Errorf("object: decode class: %w", err)
	}
	return c, nil
}

// DefineClass creates a class (DDL). The definition is transactional:
// it becomes visible to other transactions when tx commits.
func (m *Manager) DefineClass(tx *txn.Txn, c Class) error {
	if c.Name == "" {
		return fmt.Errorf("%w: class needs a name", ErrSchema)
	}
	seen := map[string]bool{}
	for _, a := range c.Attrs {
		if a.Name == "" {
			return fmt.Errorf("%w: attribute needs a name", ErrSchema)
		}
		if seen[a.Name] {
			return fmt.Errorf("%w: duplicate attribute %q", ErrSchema, a.Name)
		}
		seen[a.Name] = true
	}
	if err := tx.Lock(classItem(c.Name), lock.Exclusive); err != nil {
		return err
	}
	if _, err := m.lookupClass(tx, c.Name); err == nil {
		return fmt.Errorf("%w: %q", ErrClassExists, c.Name)
	}
	attrs, err := encodeClass(c)
	if err != nil {
		return err
	}
	oid := m.store.AllocOID()
	if err := tx.Lock(objItem(oid), lock.Exclusive); err != nil {
		return err
	}
	m.store.Put(tx.ID(), storage.Record{OID: oid, Class: MetaClass, Attrs: attrs})
	m.mu.Lock()
	m.byName[c.Name] = oid
	m.mu.Unlock()
	m.registerIndexes(c)
	return m.signal(event.OpDefineClass, c.Name, tx.ID(), map[string]datum.Value{
		"op":    datum.Str(string(event.OpDefineClass)),
		"class": datum.Str(c.Name),
	})
}

// DropClass removes a class definition (DDL). The extent must be
// empty as seen by tx.
func (m *Manager) DropClass(tx *txn.Txn, name string) error {
	if err := tx.Lock(classItem(name), lock.Exclusive); err != nil {
		return err
	}
	rec, err := m.classRecord(tx, name)
	if err != nil {
		return err
	}
	inUse := false
	m.store.ScanClass(tx.ID(), name, func(storage.Object) bool {
		inUse = true
		return false
	})
	if inUse {
		return fmt.Errorf("%w: %q", ErrClassInUse, name)
	}
	if err := tx.Lock(objItem(rec.OID), lock.Exclusive); err != nil {
		return err
	}
	m.store.Put(tx.ID(), storage.Record{OID: rec.OID, Class: MetaClass, Deleted: true})
	return m.signal(event.OpDropClass, name, tx.ID(), map[string]datum.Value{
		"op":    datum.Str(string(event.OpDropClass)),
		"class": datum.Str(name),
	})
}

// classRecord returns the schema record for name as visible to tx.
func (m *Manager) classRecord(tx *txn.Txn, name string) (storage.Object, error) {
	m.mu.RLock()
	oid, ok := m.byName[name]
	m.mu.RUnlock()
	if ok {
		if rec, live := m.store.Get(tx.ID(), oid); live && strAttr(rec, "name") == name {
			return rec, nil
		}
	}
	// Slow path: the cached OID may be stale (aborted redefinition).
	var found storage.Object
	var hit bool
	m.store.ScanClass(tx.ID(), MetaClass, func(rec storage.Object) bool {
		if strAttr(rec, "name") == name {
			found, hit = rec, true
			return false
		}
		return true
	})
	if !hit {
		return storage.Object{}, fmt.Errorf("%w: %q", ErrNoSuchClass, name)
	}
	m.mu.Lock()
	m.byName[name] = found.OID
	m.mu.Unlock()
	return found, nil
}

// lookupClass returns the class definition visible to tx. The result
// shares its Attrs with other callers and must not be modified.
func (m *Manager) lookupClass(tx *txn.Txn, name string) (Class, error) {
	rec, err := m.classRecord(tx, name)
	if err != nil {
		return Class{}, err
	}
	def := strAttr(rec, "def")
	if c, ok := m.decoded.Load(def); ok {
		return c.(Class), nil
	}
	c, err := decodeClass(rec)
	if err != nil {
		return Class{}, err
	}
	if m.nDecoded.Add(1) > maxDecodedClasses {
		m.decoded.Range(func(k, _ any) bool { m.decoded.Delete(k); return true })
		m.nDecoded.Store(1)
	}
	m.decoded.Store(def, c)
	return c, nil
}

// GetClass returns the class definition visible to tx (taking a
// shared lock on the class).
func (m *Manager) GetClass(tx *txn.Txn, name string) (Class, error) {
	if err := tx.Lock(classItem(name), lock.Shared); err != nil {
		return Class{}, err
	}
	c, err := m.lookupClass(tx, name)
	c.Attrs = slices.Clone(c.Attrs)
	return c, err
}

// Classes lists the class definitions visible to tx, in name order.
func (m *Manager) Classes(tx *txn.Txn) ([]Class, error) {
	if err := tx.CheckOperable(); err != nil {
		return nil, err
	}
	var out []Class
	var decodeErr error
	m.store.ScanClass(tx.ID(), MetaClass, func(rec storage.Object) bool {
		c, err := decodeClass(rec)
		if err != nil {
			decodeErr = err
			return false
		}
		out = append(out, c)
		return true
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// validate checks attrs against the class definition. For creates,
// required attributes must be present; for modifies, only the
// supplied attributes are checked.
func validate(c Class, attrs map[string]datum.Value, create bool) error {
	for name, v := range attrs {
		def, ok := c.Attr(name)
		if !ok {
			return fmt.Errorf("%w: class %q has no attribute %q", ErrSchema, c.Name, name)
		}
		if v.IsNull() {
			if def.Required {
				return fmt.Errorf("%w: attribute %q is required", ErrSchema, name)
			}
			continue
		}
		if v.Kind() != def.Kind &&
			!(v.IsNumeric() && (def.Kind == datum.KindInt || def.Kind == datum.KindFloat)) {
			return fmt.Errorf("%w: attribute %q wants %s, got %s", ErrSchema, name, def.Kind, v.Kind())
		}
	}
	if create {
		for _, def := range c.Attrs {
			if def.Required {
				if v, ok := attrs[def.Name]; !ok || v.IsNull() {
					return fmt.Errorf("%w: attribute %q is required", ErrSchema, def.Name)
				}
			}
		}
	}
	return nil
}

// coerce normalizes numeric values to the declared kind so indexes
// and comparisons see uniform keys.
func coerce(c Class, attrs map[string]datum.Value) map[string]datum.Value {
	out := make(map[string]datum.Value, len(attrs))
	for name, v := range attrs {
		def, ok := c.Attr(name)
		if ok && v.IsNumeric() {
			switch def.Kind {
			case datum.KindFloat:
				v = datum.Float(v.AsFloat())
			case datum.KindInt:
				v = datum.Int(v.AsInt())
			}
		}
		out[name] = v
	}
	return out
}

// Create makes a new instance of the class and reports the create
// event. Returns the new object's OID.
func (m *Manager) Create(tx *txn.Txn, class string, attrs map[string]datum.Value) (datum.OID, error) {
	if err := tx.Lock(classItem(class), lock.Shared); err != nil {
		return 0, err
	}
	c, err := m.lookupClass(tx, class)
	if err != nil {
		return 0, err
	}
	if err := validate(c, attrs, true); err != nil {
		return 0, err
	}
	attrs = coerce(c, attrs)
	if err := tx.Lock(extentItem(class), lock.Exclusive); err != nil {
		return 0, err
	}
	oid := m.store.AllocOID()
	if err := tx.Lock(objItem(oid), lock.Exclusive); err != nil {
		return 0, err
	}
	m.store.Put(tx.ID(), storage.Record{OID: oid, Class: class, Attrs: attrs})

	bindings := map[string]datum.Value{
		"op":    datum.Str(string(event.OpCreate)),
		"class": datum.Str(class),
		"oid":   datum.ID(oid),
	}
	for k, v := range attrs {
		bindings["new_"+k] = v
	}
	if err := m.signal(event.OpCreate, class, tx.ID(), bindings); err != nil {
		return oid, err
	}
	return oid, nil
}

// Modify updates attributes of an object and reports the modify event
// with old and new values.
func (m *Manager) Modify(tx *txn.Txn, oid datum.OID, updates map[string]datum.Value) error {
	if err := tx.Lock(objItem(oid), lock.Exclusive); err != nil {
		return err
	}
	rec, ok := m.store.Get(tx.ID(), oid)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchObject, oid)
	}
	if err := tx.Lock(classItem(rec.Class), lock.Shared); err != nil {
		return err
	}
	c, err := m.lookupClass(tx, rec.Class)
	if err != nil {
		return err
	}
	if err := validate(c, updates, false); err != nil {
		return err
	}
	updates = coerce(c, updates)

	bindings := map[string]datum.Value{
		"op":    datum.Str(string(event.OpModify)),
		"class": datum.Str(rec.Class),
		"oid":   datum.ID(oid),
	}
	for k, v := range updates {
		bindings["old_"+k], _ = rec.Row.Get(k)
		bindings["new_"+k] = v
	}
	// rec.Row is the stored version (shared, immutable); the next version
	// is a new row, which keeps the old one's shape unless an update adds
	// an attribute or nulls one out.
	m.store.PutObject(tx.ID(), storage.Object{OID: oid, Class: rec.Class, Row: rec.Row.Update(updates)})
	return m.signal(event.OpModify, rec.Class, tx.ID(), bindings)
}

// Delete removes an object and reports the delete event with the old
// attribute values.
func (m *Manager) Delete(tx *txn.Txn, oid datum.OID) error {
	if err := tx.Lock(objItem(oid), lock.Exclusive); err != nil {
		return err
	}
	rec, ok := m.store.Get(tx.ID(), oid)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchObject, oid)
	}
	if err := tx.Lock(classItem(rec.Class), lock.Shared); err != nil {
		return err
	}
	if err := tx.Lock(extentItem(rec.Class), lock.Exclusive); err != nil {
		return err
	}
	m.store.Put(tx.ID(), storage.Record{OID: oid, Class: rec.Class, Deleted: true})

	bindings := map[string]datum.Value{
		"op":    datum.Str(string(event.OpDelete)),
		"class": datum.Str(rec.Class),
		"oid":   datum.ID(oid),
	}
	rec.Row.Range(func(k string, v datum.Value) { bindings["old_"+k] = v })
	return m.signal(event.OpDelete, rec.Class, tx.ID(), bindings)
}

// Get returns the object visible to tx. The read is lock-free: the
// store resolves tx's own (or an ancestor's) uncommitted version,
// else the newest published committed version — no shared lock, no
// store mutex. Writers are still correct without the lock because a
// transaction that intends to write takes its exclusive lock first,
// and the previous writer's commit published before releasing it.
//
// Get and GetForUpdate are where a record leaves the engine (Engine.Get,
// the ipc get verb): the result is a map the caller may keep and modify.
// Inside the engine — queries, conditions, Modify — versions are rows,
// read by reference, never copied.
func (m *Manager) Get(tx *txn.Txn, oid datum.OID) (storage.Record, error) {
	rec, ok := m.store.Get(tx.ID(), oid)
	if !ok {
		return storage.Record{}, fmt.Errorf("%w: %v", ErrNoSuchObject, oid)
	}
	return rec.Record(), nil
}

// GetForUpdate returns the object after taking tx's exclusive lock on
// it — the SELECT FOR UPDATE idiom. Unlike the lock-free Get, the
// returned record is guaranteed current (any prior writer published
// its commit before releasing the lock) and stable until tx ends, so
// it is safe to base an update on. Read-modify-write flows that use
// plain Get instead race: two transactions can both read the same
// version before either locks, and the second write clobbers the
// first (a lost update).
func (m *Manager) GetForUpdate(tx *txn.Txn, oid datum.OID) (storage.Record, error) {
	if err := tx.Lock(objItem(oid), lock.Exclusive); err != nil {
		return storage.Record{}, err
	}
	return m.Get(tx, oid)
}

// Store exposes the underlying store (for the engine's recovery and
// checkpoint paths).
func (m *Manager) Store() *storage.Store { return m.store }

func classItem(name string) lock.Item  { return lock.Item("class/" + name) }
func extentItem(name string) lock.Item { return lock.Item("extent/" + name) }
func objItem(oid datum.OID) lock.Item  { return lock.Item("obj/" + oid.String()) }
