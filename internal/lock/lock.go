// Package lock implements the lock manager for the nested transaction
// model of Moss as used by HiPAC (§3.1, §3.3 of the paper).
//
// The central rule is Moss's: a transaction may acquire a lock in mode
// m if and only if every holder of a conflicting mode is an ancestor
// of the requester. When a subtransaction commits, its locks are
// inherited by (transferred to) its parent; when it aborts they are
// released. Because a parent is suspended while its children run, an
// ancestor-held lock can never be in active use by a concurrent
// computation, which is what makes the rule safe.
//
// The lock table is striped: items hash to one of nStripes buckets,
// each with its own mutex and condition variable, so requests for
// unrelated items never contend. Only the wait registry (who is
// blocked, on what) is global, under its own small mutex; the lock
// order is stripe mutex before registry mutex, never the reverse.
//
// Deadlocks are detected at block time by a cycle search over the
// waits-for graph. The graph has two edge kinds: a waiter points at
// each conflicting non-ancestor holder of the item it wants, and a
// suspended holder points at each of its waiting descendants (the
// descendant is the computation actually running on the holder's
// behalf, so the holder cannot release anything until the descendant
// proceeds). The probe runs without any stripe lock held — it freezes
// the wait registry, then reads each visited item's holders one
// stripe at a time. The view may therefore be slightly stale, which
// can over-report (abort a transaction on a cycle that had already
// broken) but never miss a real deadlock: a cycle is closed by
// whichever waiter registers its edge last, and that waiter's probe
// starts after every other edge of the cycle is in the registry and
// every holder on the cycle already holds its item. A cycle through a
// waiter that has left the registry is discarded (see inCycle).
//
// Since the MVCC read path landed, readers of *committed* data bypass
// the lock table entirely: point reads and scans resolve against
// commit-LSN version chains at a snapshot LSN and take no shared
// locks. The table serializes writers against writers (exclusive
// modes, Moss inheritance) and backs the explicit locking read
// (object.Manager.GetForUpdate) that read-modify-write transactions
// use in place of a plain snapshot read. Shared mode remains for
// callers that want lock-based read stability — e.g. the rule
// manager's read locks on rule objects — not for data reads.
package lock

import (
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// TxnID identifies a transaction. ID 0 is reserved for "committed
// top-level state" and never holds locks.
type TxnID uint64

// Mode is a lock mode.
type Mode int

// Lock modes in increasing strength.
const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// conflicts reports whether two modes cannot be held concurrently by
// unrelated transactions.
func conflicts(a, b Mode) bool { return a == Exclusive || b == Exclusive }

// Item names a lockable resource ("obj/#12", "class/Stock",
// "rule/#7", ...). Naming conventions live in the layers above.
type Item string

// Topology lets the lock manager ask about transaction ancestry. The
// transaction manager implements it.
type Topology interface {
	// IsAncestorOrSelf reports whether anc is desc or a (transitive)
	// parent of desc.
	IsAncestorOrSelf(anc, desc TxnID) bool
}

// Errors returned by Acquire.
var (
	ErrDeadlock = errors.New("lock: deadlock detected")
	ErrCanceled = errors.New("lock: wait canceled")
)

// Stats counts lock-manager activity; read with Manager.Stats.
type Stats struct {
	Acquired  uint64 // grants, including re-grants and upgrades
	Waited    uint64 // times a request had to block
	Deadlocks uint64 // requests refused with ErrDeadlock
}

type waitRecord struct {
	item Item
	mode Mode
}

type entry struct {
	holders map[TxnID]Mode // strongest mode held by each transaction
}

// heldSet is one transaction's lock list: the items it was granted,
// appended only on first grant so re-grants stay free and the list
// holds no duplicates (transfers may introduce a few; release treats
// them as no-ops). The mutex covers concurrent sibling transfers
// merging into a shared parent's list.
type heldSet struct {
	mu    sync.Mutex
	items []Item
}

// nStripes is the lock-table stripe count. Power of two so the item
// hash is a mask.
const nStripes = 64

// stripe is one bucket of the lock table: the entries whose items
// hash here, under their own mutex. cond wakes waiters blocked on
// this stripe's items; every mutation that can improve grantability
// broadcasts it while holding mu, so a waiter that re-checked its
// grant under mu and then slept can never miss the wakeup.
type stripe struct {
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[Item]*entry
	// xfers counts the lock inheritances (TransferToParent) applied to
	// this stripe's items. A transfer is the one way a waiter acquires
	// a new waits-for edge it did not register itself, so a waiter
	// re-runs the deadlock probe only when xfers moved since its last
	// one; see Acquire.
	xfers uint64
}

// Manager is the lock manager. It is safe for concurrent use.
type Manager struct {
	top     Topology
	stripes [nStripes]stripe
	seed    maphash.Seed

	// wmu guards waits. Lock order: a stripe's mu may be held when
	// taking wmu, never the reverse. The never-blocked grant path does
	// not touch wmu at all.
	wmu      sync.Mutex
	waits    map[TxnID]waitRecord // who is blocked, and on what
	canceled sync.Map             // TxnID -> struct{}; lock-free read on the hot path

	// held maps each transaction to the items it holds, so ReleaseAll
	// and TransferToParent visit only the stripes involved instead of
	// sweeping the whole table. Correct because a transaction's lock
	// calls are serial: grants happen on its own goroutine, and release
	// or transfer runs only after the transaction reached a terminal
	// state. A heldSet's mu is never held while taking a stripe mutex.
	held sync.Map // TxnID -> *heldSet

	nAcquired, nWaited, nDeadlocks atomic.Uint64
	nProbes                        atomic.Uint64 // deadlock probes run; tests hold it against nWaited
	obsm                           *obs.Metrics  // nil-safe wait-latency observer
}

// SetObserver installs a wait-latency observer. Not safe to call
// concurrently with lock processing.
func (m *Manager) SetObserver(o *obs.Metrics) { m.obsm = o }

// NewManager returns a lock manager that resolves ancestry through
// top.
func NewManager(top Topology) *Manager {
	m := &Manager{
		top:   top,
		seed:  maphash.MakeSeed(),
		waits: map[TxnID]waitRecord{},
	}
	for i := range m.stripes {
		st := &m.stripes[i]
		st.locks = map[Item]*entry{}
		st.cond = sync.NewCond(&st.mu)
	}
	return m
}

// stripeOf maps an item to its bucket.
func (m *Manager) stripeOf(item Item) *stripe {
	return &m.stripes[maphash.String(m.seed, string(item))&(nStripes-1)]
}

// Acquire blocks until tx holds item in at least the requested mode,
// a deadlock is detected (ErrDeadlock), or the wait is canceled
// (ErrCanceled). Re-acquiring an already-held mode is a cheap no-op;
// requesting Exclusive over a held Shared is an upgrade and follows
// the same conflict rule.
func (m *Manager) Acquire(tx TxnID, item Item, mode Mode) error {
	st := m.stripeOf(item)
	st.mu.Lock()
	// waitTimer stays zero (a no-op) unless the request blocks; it
	// then measures block-to-resolution, whatever the outcome.
	// waited tracks whether this request ever entered the registry, so
	// the common never-blocked grant skips the registry mutex.
	var waitTimer obs.Timer
	waited := false
	var probed uint64 // st.xfers at this request's last deadlock probe
	for {
		if m.isCanceled(tx) {
			if waited {
				m.clearWait(tx)
			}
			st.mu.Unlock()
			waitTimer.Done()
			return fmt.Errorf("%w (txn %d, item %q)", ErrCanceled, tx, item)
		}
		e := st.locks[item]
		if e == nil {
			e = &entry{holders: map[TxnID]Mode{}}
			st.locks[item] = e
		}
		if m.grantable(e, tx, mode) {
			cur, already := e.holders[tx]
			if !already || mode > cur {
				e.holders[tx] = mode
			}
			// Clear the wait before releasing the stripe so no probe
			// sees a granted request still registered as blocked.
			if waited {
				m.clearWait(tx)
			}
			st.mu.Unlock()
			if !already {
				m.noteHeld(tx, item)
			}
			m.nAcquired.Add(1)
			waitTimer.Done()
			return nil
		}
		// A blocked request probes for deadlock when it first blocks
		// and again whenever a lock inheritance touched the stripe —
		// not on every wakeup. A release only removes edges. A fresh
		// grant adds an edge from each remaining waiter to the new
		// holder, but that holder is running: it is not waiting, and
		// it has no active descendants (a transaction with active
		// children is suspended and acquires nothing), so it has no
		// outgoing edge and cannot close a cycle until it blocks
		// itself, when its own probe sees these edges. Inheritance is
		// different: it moves a lock to a suspended parent that may
		// have other descendants waiting. Probing on every wakeup
		// made a hot item collapse: each release woke every waiter,
		// and each re-froze the whole wait registry under wmu — a
		// quadratic handoff that grew with the queue it caused.
		if !waited || st.xfers != probed {
			// Register the wait before probing for deadlock: the probe
			// of whichever waiter closes a cycle must be able to see
			// every other edge. The canceled re-read inside
			// registerWait closes the race with a concurrent Cancel
			// that looked up our (not yet registered) wait record and
			// broadcast nothing.
			first, canceled := m.registerWait(tx, item, mode)
			waited = true
			if first {
				m.nWaited.Add(1)
				waitTimer = m.obsm.Timer(obs.HLockWait)
			}
			if canceled {
				continue // loop top returns ErrCanceled
			}
			// The cycle probe takes stripes one at a time, so it must
			// not hold ours. Releasing the stripe opens a window in
			// which the request may become grantable, a Cancel may
			// land, or an inheritance may add an edge the probe did
			// not see; the re-locked check below sends all three back
			// to the loop top before sleeping, and any later change
			// broadcasts under st.mu, so the sleep cannot miss its
			// wakeup.
			probed = st.xfers
			st.mu.Unlock()
			dead := m.inCycle(tx)
			st.mu.Lock()
			if dead {
				m.clearWait(tx)
				m.nDeadlocks.Add(1)
				st.mu.Unlock()
				waitTimer.Done()
				return fmt.Errorf("%w (txn %d, item %q, mode %s)", ErrDeadlock, tx, item, mode)
			}
			if st.xfers != probed || m.isCanceled(tx) || m.grantable(st.locks[item], tx, mode) {
				continue
			}
		}
		st.cond.Wait()
	}
}

// noteHeld appends item to tx's lock list. Callers invoke it only
// when the grant created a new holder entry (not on re-grants or
// upgrades), which keeps the list duplicate-free and the hot
// re-acquire path unaffected.
func (m *Manager) noteHeld(tx TxnID, item Item) {
	v, ok := m.held.Load(tx)
	if !ok {
		v, _ = m.held.LoadOrStore(tx, &heldSet{})
	}
	h := v.(*heldSet)
	h.mu.Lock()
	h.items = append(h.items, item)
	h.mu.Unlock()
}

// takeHeld removes and returns tx's lock list.
func (m *Manager) takeHeld(tx TxnID) []Item {
	v, ok := m.held.LoadAndDelete(tx)
	if !ok {
		return nil
	}
	h := v.(*heldSet)
	h.mu.Lock()
	items := h.items
	h.items = nil
	h.mu.Unlock()
	return items
}

// isCanceled reads tx's cancellation mark. Lock-free: the mark lives
// in a sync.Map so the never-blocked grant path stays off wmu.
func (m *Manager) isCanceled(tx TxnID) bool {
	_, ok := m.canceled.Load(tx)
	return ok
}

// clearWait removes tx from the wait registry.
func (m *Manager) clearWait(tx TxnID) {
	m.wmu.Lock()
	delete(m.waits, tx)
	m.wmu.Unlock()
}

// registerWait records that tx blocks on item/mode, reporting whether
// this is a fresh block (for stats) and whether tx is already
// canceled.
func (m *Manager) registerWait(tx TxnID, item Item, mode Mode) (first, canceled bool) {
	m.wmu.Lock()
	_, already := m.waits[tx]
	m.waits[tx] = waitRecord{item: item, mode: mode}
	m.wmu.Unlock()
	// Read the mark only after the record is visible: either this load
	// sees a concurrent Cancel's store, or the Cancel's registry lookup
	// (which follows its store) sees the record and broadcasts our
	// stripe — never both misses.
	return !already, m.isCanceled(tx)
}

// TryAcquire attempts the grant without blocking, reporting success.
func (m *Manager) TryAcquire(tx TxnID, item Item, mode Mode) bool {
	st := m.stripeOf(item)
	st.mu.Lock()
	e := st.locks[item]
	if e == nil {
		e = &entry{holders: map[TxnID]Mode{}}
		st.locks[item] = e
	}
	if !m.grantable(e, tx, mode) {
		st.mu.Unlock()
		return false
	}
	cur, already := e.holders[tx]
	if !already || mode > cur {
		e.holders[tx] = mode
	}
	st.mu.Unlock()
	if !already {
		m.noteHeld(tx, item)
	}
	m.nAcquired.Add(1)
	return true
}

// grantable implements Moss's rule. Caller holds the entry's stripe
// mutex; e may be nil (vacuously grantable).
func (m *Manager) grantable(e *entry, tx TxnID, mode Mode) bool {
	if e == nil {
		return true
	}
	for h, hm := range e.holders {
		if h == tx {
			continue
		}
		if conflicts(hm, mode) && !m.top.IsAncestorOrSelf(h, tx) {
			return false
		}
	}
	return true
}

// inCycle reports whether tx participates in a waits-for cycle. It is
// called with no stripe lock held: the wait registry is frozen into a
// snapshot up front, and each visited item's holders are read under
// that item's stripe, one stripe at a time.
//
// A waiter in the snapshot that is granted and finishes mid-probe has
// no ancestry left to consult, so every holder of its item — even its
// own ancestor that inherited the lock — looks like a blocker, and a
// cycle through it is a phantom. A cycle counts only if every waiter
// on it is still registered; otherwise the probe runs again on a fresh
// snapshot, which the finished waiter has left. The waiters of a real
// cycle cannot leave, so it is never missed.
func (m *Manager) inCycle(start TxnID) bool {
	m.nProbes.Add(1)
	for {
		m.wmu.Lock()
		waits := maps.Clone(m.waits)
		m.wmu.Unlock()
		visited := map[TxnID]bool{}
		var path []TxnID
		var visit func(tx TxnID) bool
		visit = func(tx TxnID) bool {
			if visited[tx] {
				return false
			}
			visited[tx] = true
			path = append(path, tx)
			for _, next := range m.blockers(waits, tx) {
				if next == start || visit(next) {
					return true
				}
			}
			path = path[:len(path)-1]
			return false
		}
		if !visit(start) {
			return false
		}
		m.wmu.Lock()
		live := true
		for _, tx := range path {
			if w, ok := waits[tx]; ok && m.waits[tx] != w {
				live = false
			}
		}
		m.wmu.Unlock()
		if live {
			return true
		}
	}
}

// blockers returns the transactions tx is directly waiting on:
// conflicting non-ancestor holders of its wanted item, plus — because
// a holder with running descendants is suspended until they finish —
// every waiting descendant of tx itself. waits is the probe's frozen
// registry snapshot; holders are read live under the item's stripe.
func (m *Manager) blockers(waits map[TxnID]waitRecord, tx TxnID) []TxnID {
	var out []TxnID
	if w, ok := waits[tx]; ok {
		st := m.stripeOf(w.item)
		st.mu.Lock()
		if e := st.locks[w.item]; e != nil {
			for h, hm := range e.holders {
				if h != tx && conflicts(hm, w.mode) && !m.top.IsAncestorOrSelf(h, tx) {
					out = append(out, h)
				}
			}
		}
		st.mu.Unlock()
	}
	// Delegation edges: tx's progress depends on its blocked
	// descendants (tx is suspended while they run).
	for w := range waits {
		if w != tx && m.top.IsAncestorOrSelf(tx, w) {
			out = append(out, w)
		}
	}
	return out
}

// ReleaseAll drops every lock held by tx (used at abort, and at
// top-level commit) and clears any cancellation mark. The lock list
// names the items, so only their stripes are touched and woken.
func (m *Manager) ReleaseAll(tx TxnID) {
	for _, item := range m.takeHeld(tx) {
		st := m.stripeOf(item)
		st.mu.Lock()
		if e := st.locks[item]; e != nil {
			if _, ok := e.holders[tx]; ok {
				delete(e.holders, tx)
				if len(e.holders) == 0 {
					delete(st.locks, item)
				}
				st.cond.Broadcast()
			}
		}
		st.mu.Unlock()
	}
	m.canceled.Delete(tx)
}

// TransferToParent implements lock inheritance at subtransaction
// commit: every lock held by child is afterwards held by parent in
// the stronger of the two modes. Waiters on affected stripes are
// woken — ancestry-based grantability may have improved for waiters
// that are descendants of the parent, and only items the child held
// can be affected.
func (m *Manager) TransferToParent(child, parent TxnID) {
	items := m.takeHeld(child)
	inherited := items[:0]
	for _, item := range items {
		st := m.stripeOf(item)
		st.mu.Lock()
		if e := st.locks[item]; e != nil {
			if cm, ok := e.holders[child]; ok {
				pm, held := e.holders[parent]
				if !held || cm > pm {
					e.holders[parent] = cm
				}
				delete(e.holders, child)
				if !held {
					// Parent's list gains only items it did not already
					// hold, so lists stay duplicate-free.
					inherited = append(inherited, item)
				}
				st.xfers++
				st.cond.Broadcast()
			}
		}
		st.mu.Unlock()
	}
	for _, item := range inherited {
		m.noteHeld(parent, item)
	}
	m.canceled.Delete(child)
}

// Cancel wakes any in-progress or future waits by tx with
// ErrCanceled. Used when a transaction is aborted from another
// goroutine while it may be blocked.
func (m *Manager) Cancel(tx TxnID) {
	m.canceled.Store(tx, struct{}{})
	m.wmu.Lock()
	w, waiting := m.waits[tx]
	m.wmu.Unlock()
	if !waiting {
		// Not blocked yet. If tx is racing toward a wait, it re-reads
		// the mark inside registerWait (after publishing its record)
		// and returns without sleeping.
		return
	}
	st := m.stripeOf(w.item)
	st.mu.Lock()
	st.cond.Broadcast()
	st.mu.Unlock()
}

// HeldMode reports the mode tx holds on item, if any.
func (m *Manager) HeldMode(tx TxnID, item Item) (Mode, bool) {
	st := m.stripeOf(item)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.locks[item]; e != nil {
		mode, ok := e.holders[tx]
		return mode, ok
	}
	return 0, false
}

// HeldItems returns the number of items on which tx holds a lock.
func (m *Manager) HeldItems(tx TxnID) int {
	v, ok := m.held.Load(tx)
	if !ok {
		return 0
	}
	h := v.(*heldSet)
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.items)
}

// Stats returns a snapshot of the activity counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquired:  m.nAcquired.Load(),
		Waited:    m.nWaited.Load(),
		Deadlocks: m.nDeadlocks.Load(),
	}
}
