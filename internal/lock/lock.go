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
// Each transaction carries its lock record, an Owner: its id, its
// parent's record, the entries it holds, the request it is blocked on
// and its blocked descendants. Ancestry is a walk of the records'
// parent pointers, which never change, and release and inheritance
// visit the held entries directly, so the lock path looks nothing up
// by transaction id, and there is no global lock state but the table.
//
// The lock table is striped: items hash to one of nStripes buckets,
// each with its own mutex and condition variable, so requests for
// unrelated items never contend. An entry emptied by its last release
// goes on its stripe's free list for the next item to reuse. The lock
// order is stripe mutex before a record's mutex, never the reverse.
//
// Deadlocks are detected at block time by chasing edges of the
// waits-for graph from the blocked request. A waiter points at each
// conflicting non-ancestor holder of the item it wants, and a
// suspended holder points at each of its blocked descendants (the
// descendant is the computation actually running on the holder's
// behalf, so the holder cannot release anything until the descendant
// proceeds). A blocked request stores its wait on its own record and
// adds itself to each ancestor's blocked set; the probe reads the
// edges off the records it reaches, one at a time, with no stripe lock
// held. The view may therefore be slightly stale, which can
// over-report (abort a transaction on a cycle that had already broken)
// but never miss a real deadlock: a cycle is closed by whichever
// waiter records its wait last, and that waiter's probe starts after
// every other waiter on the cycle has recorded its own and every
// holder on the cycle already holds its item. A cycle through a waiter
// that has since moved on is discarded (see inCycle).
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

// Owner is one transaction's lock record. The transaction manager
// embeds one in each transaction and sets it up with Init.
type Owner struct {
	id     TxnID
	parent *Owner // never changes, so ancestry walks need no lock
	// wait is the request o is blocked on, nil while it is not blocked.
	// Each blocking episode stores a fresh record, so a deadlock probe
	// can tell the wait it read from a later one on the same item.
	wait atomic.Pointer[waitRecord]
	// mu guards held and blocked. It is a leaf: a blocking request takes
	// its ancestors' mu one at a time under its stripe's mu, and
	// nothing else is held with it.
	mu   sync.Mutex
	held []*entry // the entries o holds, each once
	// blocked is o's blocked descendants, at any depth; nil until the
	// first of them blocks. A set, so that a grant leaves it in
	// constant time however many of o's children queue on one item.
	blocked map[*Owner]struct{}
}

// Init sets the record's id and parent record (nil for a top-level
// transaction). Call it once, before the record is used.
func (o *Owner) Init(id TxnID, parent *Owner) { o.id, o.parent = id, parent }

// ID returns the transaction id.
func (o *Owner) ID() TxnID { return o.id }

// within reports whether anc is o or one of o's transitive parents.
func (o *Owner) within(anc *Owner) bool {
	for ; o != nil; o = o.parent {
		if o == anc {
			return true
		}
	}
	return false
}

// add appends entries to o's held list.
func (o *Owner) add(entries ...*entry) {
	o.mu.Lock()
	o.held = append(o.held, entries...)
	o.mu.Unlock()
}

// take removes and returns o's held list.
func (o *Owner) take() []*entry {
	o.mu.Lock()
	held := o.held
	o.held = nil
	o.mu.Unlock()
	return held
}

// block records that o waits for item in mode, and adds o to each
// ancestor's blocked set: a suspended ancestor cannot proceed until o
// does. Caller holds item's stripe mu.
func (o *Owner) block(item Item, mode Mode) {
	o.wait.Store(&waitRecord{item: item, mode: mode})
	for a := o.parent; a != nil; a = a.parent {
		a.mu.Lock()
		if a.blocked == nil {
			a.blocked = map[*Owner]struct{}{}
		}
		a.blocked[o] = struct{}{}
		a.mu.Unlock()
	}
}

// unblock undoes block. Caller holds the stripe mu block ran under.
func (o *Owner) unblock() {
	o.wait.Store(nil)
	for a := o.parent; a != nil; a = a.parent {
		a.mu.Lock()
		delete(a.blocked, o)
		a.mu.Unlock()
	}
}

// Topology resolves a transaction id to its lock record for the
// id-keyed entry points, Acquire and ReleaseAll; it returns nil for a
// transaction that is not live. The transaction manager implements it.
type Topology interface {
	Owner(TxnID) *Owner
}

// ErrDeadlock is returned by a lock request that would close a
// waits-for cycle.
var ErrDeadlock = errors.New("lock: deadlock detected")

// Stats counts lock-manager activity; read with Manager.Stats.
type Stats struct {
	Acquired  uint64 // grants, including re-grants and upgrades
	Waited    uint64 // times a request had to block
	Deadlocks uint64 // requests refused with ErrDeadlock
}

// waitRecord is one blocking episode of a request.
type waitRecord struct {
	item Item
	mode Mode
}

// holder is one transaction's hold on an entry, in the strongest mode
// it was granted.
type holder struct {
	o    *Owner
	mode Mode
}

// entry is one locked item's holders, under its stripe's mutex.
type entry struct {
	item    Item
	st      *stripe
	holders []holder
}

// grantable implements Moss's rule: o may hold e in mode iff every
// other holder of a conflicting mode is one of o's ancestors. It also
// returns o's index among the holders, -1 if o holds nothing.
func (e *entry) grantable(o *Owner, mode Mode) (ok bool, at int) {
	at = -1
	for i, h := range e.holders {
		if h.o == o {
			at = i
		} else if conflicts(h.mode, mode) && !o.within(h.o) {
			return false, at
		}
	}
	return true, at
}

// index returns o's index among e's holders, -1 if none.
func (e *entry) index(o *Owner) int {
	for i, h := range e.holders {
		if h.o == o {
			return i
		}
	}
	return -1
}

// nStripes is the lock-table stripe count. Power of two so the item
// hash is a mask.
const nStripes = 64

// maxFree bounds each stripe's free list of emptied entries.
const maxFree = 16

// stripe is one bucket of the lock table: the entries whose items
// hash here, under their own mutex. cond wakes waiters blocked on
// this stripe's items; every mutation that can improve grantability
// broadcasts it while holding mu, so a waiter that re-checked its
// grant under mu and then slept can never miss the wakeup.
type stripe struct {
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[Item]*entry
	free  []*entry // emptied entries, reused before allocating
	// xfers counts the lock inheritances (Inherit) applied to this
	// stripe's items. An inheritance is the one way a waiter acquires a
	// new waits-for edge it did not register itself, so a waiter re-runs
	// the deadlock probe only when xfers moved since its last one; see
	// Lock.
	xfers uint64
}

// grant gives o item in mode if Moss's rule allows, and reports
// whether it did and, on o's first grant of item, the entry for the
// caller to add to o's list once it has released st.mu. Caller holds
// st.mu.
func (st *stripe) grant(o *Owner, item Item, mode Mode) (added *entry, ok bool) {
	e := st.locks[item]
	if e == nil {
		if n := len(st.free); n > 0 {
			e, st.free = st.free[n-1], st.free[:n-1]
		} else {
			e = &entry{st: st}
		}
		e.item = item
		st.locks[item] = e
	}
	ok, at := e.grantable(o, mode)
	switch {
	case !ok:
		return nil, false
	case at >= 0:
		e.holders[at].mode = max(e.holders[at].mode, mode)
		return nil, true
	}
	e.holders = append(e.holders, holder{o, mode})
	return e, true
}

// drop removes e's holder at index i, recycling e once it has none,
// and wakes the stripe's waiters. Caller holds st.mu.
func (st *stripe) drop(e *entry, i int) {
	last := len(e.holders) - 1
	e.holders[i] = e.holders[last]
	e.holders[last] = holder{}
	e.holders = e.holders[:last]
	if last == 0 {
		delete(st.locks, e.item)
		if len(st.free) < maxFree {
			e.item = ""
			st.free = append(st.free, e)
		}
	}
	st.cond.Broadcast()
}

// Manager is the lock manager. It is safe for concurrent use.
type Manager struct {
	top     Topology
	stripes [nStripes]stripe
	seed    maphash.Seed

	nAcquired, nWaited, nDeadlocks atomic.Uint64
	nProbes                        atomic.Uint64 // deadlock probes run; tests hold it against nWaited
	obsm                           *obs.Metrics  // nil-safe wait-latency observer
}

// SetObserver installs a wait-latency observer. Not safe to call
// concurrently with lock processing.
func (m *Manager) SetObserver(o *obs.Metrics) { m.obsm = o }

// NewManager returns a lock manager that resolves transaction ids
// through top.
func NewManager(top Topology) *Manager {
	m := &Manager{top: top, seed: maphash.MakeSeed()}
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

// Acquire is Lock for the live transaction with id tx.
func (m *Manager) Acquire(tx TxnID, item Item, mode Mode) error {
	o := m.top.Owner(tx)
	if o == nil {
		return fmt.Errorf("lock: txn %d is not live", tx)
	}
	return m.Lock(o, item, mode)
}

// ReleaseAll is Release for the live transaction with id tx, and a
// no-op for any other id.
func (m *Manager) ReleaseAll(tx TxnID) {
	if o := m.top.Owner(tx); o != nil {
		m.Release(o)
	}
}

// Lock blocks until o holds item in at least the requested mode, or a
// deadlock is detected (ErrDeadlock). Re-acquiring an already-held
// mode is a cheap no-op; requesting Exclusive over a held Shared is an
// upgrade and follows the same conflict rule.
func (m *Manager) Lock(o *Owner, item Item, mode Mode) error {
	st := m.stripeOf(item)
	st.mu.Lock()
	// waitTimer stays zero (a no-op) unless the request blocks; it
	// then measures block-to-resolution, whatever the outcome.
	// waited tracks whether this request has recorded a wait, so the
	// common never-blocked grant touches no record but its own list.
	var waitTimer obs.Timer
	waited := false
	var probed uint64 // st.xfers at this request's last deadlock probe
	for {
		if added, ok := st.grant(o, item, mode); ok {
			// Clear the wait before releasing the stripe so no probe
			// sees a granted request still recorded as blocked.
			if waited {
				o.unblock()
			}
			st.mu.Unlock()
			// The list append may allocate: keep it out of the stripe.
			if added != nil {
				o.add(added)
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
		// and each probed again — a handoff cost that grew with the
		// queue it caused.
		if !waited || st.xfers != probed {
			// Record the wait before probing for deadlock: the probe
			// of whichever waiter closes a cycle must be able to see
			// every other edge.
			if !waited {
				o.block(item, mode)
				m.nWaited.Add(1)
				waitTimer = m.obsm.Timer(obs.HLockWait)
				waited = true
			}
			// The cycle probe takes stripes one at a time, so it must
			// not hold ours. Releasing the stripe opens a window in
			// which the request may become grantable or an inheritance
			// may add an edge the probe did not see; the loop top
			// re-checks both under the stripe before sleeping, and any
			// later change broadcasts under st.mu, so the sleep cannot
			// miss its wakeup.
			probed = st.xfers
			st.mu.Unlock()
			dead := m.inCycle(o)
			st.mu.Lock()
			if dead {
				o.unblock()
				m.nDeadlocks.Add(1)
				st.mu.Unlock()
				waitTimer.Done()
				return fmt.Errorf("%w (txn %d, item %q, mode %s)", ErrDeadlock, o.id, item, mode)
			}
			continue
		}
		st.cond.Wait()
	}
}

// inCycle reports whether start participates in a waits-for cycle. It
// chases edges from start (edge chasing, as in Chandy, Misra & Haas,
// ACM TOCS 1983) with no stripe lock held, reading each node it
// reaches off that node's own record (see blockers); waiters it does
// not reach are never touched.
//
// A waiter the probe read may have been granted since, and finished,
// and its item passed on to transactions it never waited for; a cycle
// through it is a phantom. A cycle counts only if every waiter on it
// still holds the wait record the probe read; otherwise the probe runs
// again, and no longer reaches the finished waiter's old wait. The
// waiters of a real cycle cannot move, so it is never missed.
func (m *Manager) inCycle(start *Owner) bool {
	m.nProbes.Add(1)
	for {
		visited := map[*Owner]bool{}
		stale := false
		var visit func(o *Owner) bool
		visit = func(o *Owner) bool {
			if visited[o] {
				return false
			}
			visited[o] = true
			w := o.wait.Load()
			for _, next := range m.blockers(o, w) {
				if next == start || visit(next) {
					// o is on the cycle found: check its wait on the way out.
					stale = stale || w != nil && o.wait.Load() != w
					return true
				}
			}
			return false
		}
		if !visit(start) {
			return false
		}
		if !stale {
			return true
		}
	}
}

// blockers returns the transactions o is directly waiting on:
// conflicting non-ancestor holders of the item its wait w names (nil
// if o is not blocked), read under that item's stripe, plus — because
// a holder with running descendants is suspended until they finish —
// o's blocked descendants, read under o's mu.
func (m *Manager) blockers(o *Owner, w *waitRecord) []*Owner {
	var out []*Owner
	if w != nil {
		st := m.stripeOf(w.item)
		st.mu.Lock()
		if e := st.locks[w.item]; e != nil {
			for _, h := range e.holders {
				if h.o != o && conflicts(h.mode, w.mode) && !o.within(h.o) {
					out = append(out, h.o)
				}
			}
		}
		st.mu.Unlock()
	}
	o.mu.Lock()
	for d := range o.blocked {
		out = append(out, d)
	}
	o.mu.Unlock()
	return out
}

// Release drops every lock o holds (at abort, and at top-level
// commit). The held list names the entries, so only their stripes are
// touched and woken.
func (m *Manager) Release(o *Owner) {
	for _, e := range o.take() {
		st := e.st
		st.mu.Lock()
		if i := e.index(o); i >= 0 {
			st.drop(e, i)
		}
		st.mu.Unlock()
	}
}

// Inherit implements lock inheritance at subtransaction commit: every
// lock o holds is afterwards held by o's parent in the stronger of the
// two modes. Waiters on the affected stripes are woken: a waiter that
// descends from the parent may have become grantable.
func (m *Manager) Inherit(o *Owner) {
	p := o.parent
	held := o.take()
	inherited := held[:0]
	for _, e := range held {
		st := e.st
		st.mu.Lock()
		if i := e.index(o); i >= 0 {
			if j := e.index(p); j >= 0 {
				e.holders[j].mode = max(e.holders[j].mode, e.holders[i].mode)
				st.drop(e, i)
			} else {
				// The parent takes the child's place, and its list gains
				// only entries it did not already hold.
				e.holders[i].o = p
				inherited = append(inherited, e)
				st.cond.Broadcast()
			}
			st.xfers++
		}
		st.mu.Unlock()
	}
	p.add(inherited...)
}

// HeldMode reports the mode o holds on item, if any.
func (m *Manager) HeldMode(o *Owner, item Item) (Mode, bool) {
	st := m.stripeOf(item)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.locks[item]; e != nil {
		if i := e.index(o); i >= 0 {
			return e.holders[i].mode, true
		}
	}
	return 0, false
}

// Stats returns a snapshot of the activity counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquired:  m.nAcquired.Load(),
		Waited:    m.nWaited.Load(),
		Deadlocks: m.nDeadlocks.Load(),
	}
}
