// Package txn implements the HiPAC nested transaction model (§3.1 of
// the paper, after Moss): top-level transactions are atomic,
// serializable and permanent; nested transactions (subtransactions)
// are atomic and serializable against their siblings; a parent is
// suspended while its children execute; the effects of a
// subtransaction become permanent only when it and all its ancestors
// commit; aborting a transaction discards the effects of its entire
// subtree.
//
// Each transaction is one record: its state and child count under its
// own mutex, and its lock record (lock.Owner) embedded beside them, so
// beginning, locking and completing a transaction takes no lock shared
// with unrelated transactions. The manager hands out ids and counts
// live transactions with atomics, keeps an id-keyed index for the
// callers that know only an id (the rule manager's Find, the store's
// Topology), coordinates the lock manager (lock inheritance at nested
// commit, release at abort/top commit), and drives registered
// Participants (the storage layer) and hooks (the rule manager's
// deferred-firing processing runs as a pre-commit hook, exactly as in
// §6.3: the "commit event signal" is delivered before commit
// processing completes).
//
// Top-level commit has a visibility contract with the MVCC store: the
// storage participant's CommitTop returns only after the commit's
// LSN is published (visible to fresh snapshots), and the manager
// releases the transaction's locks only after every participant
// commits. A writer that acquires those locks next therefore always
// reads the previous writer's effects, which is what lets plain reads
// skip the lock table entirely.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/obs"
)

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	// Active: the transaction may perform operations (unless
	// suspended by running children).
	Active State = iota
	// Committing: pre-commit hooks are running; the transaction may
	// still spawn children (deferred rule firings) but user
	// operations are done.
	Committing
	// Committed is terminal.
	Committed
	// Aborted is terminal.
	Aborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committing:
		return "committing"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors returned by transaction operations.
var (
	// ErrFinished: the transaction has already committed or aborted.
	ErrFinished = errors.New("txn: transaction already terminated")
	// ErrSuspended: the parent attempted an operation while children
	// run. The paper's model suspends parents for the duration of
	// their subtransactions.
	ErrSuspended = errors.New("txn: transaction suspended while subtransactions execute")
	// ErrChildrenActive: Commit/Abort called before all children
	// terminated.
	ErrChildrenActive = errors.New("txn: subtransactions still active")
)

// Participant is a resource manager (the storage layer) that takes
// part in transaction completion.
type Participant interface {
	// CommitNested folds the child's effects into its parent.
	CommitNested(child, parent lock.TxnID) error
	// CommitTop makes a top-level transaction's effects permanent.
	CommitTop(top lock.TxnID) error
	// AbortTxn discards the transaction's effects. Descendant
	// transactions' effects were already folded in or discarded.
	AbortTxn(tx lock.TxnID)
}

// Hook is a pre-commit hook. It runs while the transaction is in
// state Committing; it may create and run subtransactions of t. A
// non-nil error aborts the commit (the transaction is then aborted).
type Hook func(t *Txn) error

// Listener observes terminal transaction events (the "transaction
// control" primitive events of §2.1). It runs after the state change.
type Listener func(t *Txn, committed bool)

// Manager creates and completes transactions.
type Manager struct {
	nextID atomic.Uint64 // the last id handed out
	live   atomic.Int64  // non-terminated transactions
	index  index
	locks  *lock.Manager
	parts  []Participant
	hooks  []Hook
	listen []Listener
	obsm   *obs.Metrics // nil-safe commit-latency observer
}

// nShards is the index's shard count. Power of two so the id is a
// mask; consecutive ids land on different shards.
const nShards = 32

// index maps the ids of live transactions to their records. Each shard
// has its own mutex, a leaf, so a Begin or Commit meets only the
// transactions whose ids share its shard, and an insert into a warm
// shard's map allocates nothing.
type index [nShards]struct {
	mu sync.Mutex
	m  map[lock.TxnID]*Txn
}

func (ix *index) put(t *Txn) {
	sh := &ix[t.ID()&(nShards-1)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = map[lock.TxnID]*Txn{}
	}
	sh.m[t.ID()] = t
	sh.mu.Unlock()
}

func (ix *index) get(id lock.TxnID) *Txn {
	sh := &ix[id&(nShards-1)]
	sh.mu.Lock()
	t := sh.m[id]
	sh.mu.Unlock()
	return t
}

func (ix *index) del(id lock.TxnID) {
	sh := &ix[id&(nShards-1)]
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
}

// SetObserver installs a commit-latency observer. Not safe to call
// concurrently with transaction processing.
func (m *Manager) SetObserver(o *obs.Metrics) { m.obsm = o }

// NewSystem returns a transaction manager wired to a fresh lock
// manager.
func NewSystem() (*Manager, *lock.Manager) {
	m := &Manager{}
	m.locks = lock.NewManager(m)
	return m, m.locks
}

// Register adds a participant (resource manager). Not safe to call
// concurrently with transaction processing.
func (m *Manager) Register(p Participant) { m.parts = append(m.parts, p) }

// AddPreCommitHook installs a pre-commit hook; hooks run in
// installation order on every Commit. Not safe to call concurrently
// with transaction processing.
func (m *Manager) AddPreCommitHook(h Hook) { m.hooks = append(m.hooks, h) }

// AddListener installs a terminal-event listener. Not safe to call
// concurrently with transaction processing.
func (m *Manager) AddListener(l Listener) { m.listen = append(m.listen, l) }

// IsAncestorOrSelf implements storage.Topology: it reports whether
// anc is desc or one of desc's transitive parents. Parent links are
// immutable, so only the initial id lookup needs synchronization.
func (m *Manager) IsAncestorOrSelf(anc, desc lock.TxnID) bool {
	if anc == desc {
		return true
	}
	t := m.index.get(desc)
	if t == nil {
		return false
	}
	for t = t.parent; t != nil; t = t.parent {
		if t.ID() == anc {
			return true
		}
	}
	return false
}

// Parent implements storage.Topology: the id of tx's parent, false for
// a top-level or no longer live transaction.
func (m *Manager) Parent(tx lock.TxnID) (lock.TxnID, bool) {
	if t := m.index.get(tx); t != nil && t.parent != nil {
		return t.parent.ID(), true
	}
	return 0, false
}

// Owner implements lock.Topology: the lock record of a live
// transaction, nil for any other id.
func (m *Manager) Owner(id lock.TxnID) *lock.Owner {
	if t := m.index.get(id); t != nil {
		return &t.rec
	}
	return nil
}

// Find returns the live transaction with the given id. The Rule
// Manager uses it to locate the triggering transaction of an event
// signal; since signals are processed synchronously on the
// transaction's own goroutine, the returned handle is safe to use
// there.
func (m *Manager) Find(id lock.TxnID) (*Txn, bool) {
	t := m.index.get(id)
	return t, t != nil
}

// Live reports the number of non-terminated transactions.
func (m *Manager) Live() int { return int(m.live.Load()) }

// Begin creates a new top-level transaction.
func (m *Manager) Begin() *Txn {
	return m.newTxn(nil)
}

func (m *Manager) newTxn(parent *Txn) *Txn {
	t := &Txn{m: m, parent: parent}
	var prec *lock.Owner
	if parent != nil {
		t.Level = parent.Level + 1
		prec = &parent.rec
	}
	t.rec.Init(lock.TxnID(m.nextID.Add(1)), prec)
	m.live.Add(1)
	m.index.put(t)
	return t
}

// Txn is one (top-level or nested) transaction. A Txn's operations
// are driven by one goroutine at a time; concurrent siblings each
// have their own Txn.
type Txn struct {
	m      *Manager
	rec    lock.Owner // id, parent's record, held locks
	parent *Txn

	// mu guards state and children. It is a leaf: nothing is locked
	// under it.
	mu       sync.Mutex
	state    State
	children int // active subtransactions

	// DeferredData is an opaque slot the rule manager uses to hang
	// this transaction's deferred rule firings on (§6.3). It is
	// managed entirely above this package.
	DeferredData any

	// Span is the open firing span that signals raised in this
	// transaction nest under. Like DeferredData it is managed by the
	// rule manager; it is atomic because sibling firings read their
	// ancestors' spans concurrently.
	Span atomic.Pointer[obs.Span]

	// Internal marks transactions created by the rule manager and the
	// engine itself (condition/action subtransactions, separate
	// firings, rule-catalog updates). Internal transactions do not
	// signal transaction-control events — otherwise a rule on
	// commit() would trigger itself through its own firing
	// subtransactions' commits, recursing forever. Their deferred
	// sets still drain normally.
	Internal bool

	// Level is the rule-cascade level: 0 for a client's transaction, a
	// child's or a separate rule firing's is its parent's or trigger's + 1.
	Level int
}

// ID returns the transaction identifier.
func (t *Txn) ID() lock.TxnID { return t.rec.ID() }

// Parent returns the parent transaction, or nil for a top-level one.
func (t *Txn) Parent() *Txn { return t.parent }

// IsTop reports whether this is a top-level transaction.
func (t *Txn) IsTop() bool { return t.parent == nil }

// Top returns the root of this transaction's tree.
func (t *Txn) Top() *Txn {
	for t.parent != nil {
		t = t.parent
	}
	return t
}

// State returns the current lifecycle state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// CheckOperable returns nil if the transaction may perform database
// operations now: it must be Active (or Committing, for operations
// issued by deferred rule firings) and not suspended by running
// children.
func (t *Txn) CheckOperable() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.finishableLocked(); err != nil {
		return err
	}
	if t.children > 0 {
		return fmt.Errorf("%w (txn %d, %d children)", ErrSuspended, t.ID(), t.children)
	}
	return nil
}

// finishableLocked returns ErrFinished for a terminated transaction.
// Caller holds t.mu.
func (t *Txn) finishableLocked() error {
	if t.state == Committed || t.state == Aborted {
		return fmt.Errorf("%w (txn %d, %s)", ErrFinished, t.ID(), t.state)
	}
	return nil
}

// Child creates a nested transaction. The parent becomes suspended
// until every child terminates. Children may be created while the
// parent is Active or Committing (the latter supports deferred rule
// firings at commit, §6.3). The state check and the child count share
// one critical section, so a child never attaches to a parent that
// has just terminated.
func (t *Txn) Child() (*Txn, error) {
	t.mu.Lock()
	if err := t.finishableLocked(); err != nil {
		t.mu.Unlock()
		return nil, err
	}
	t.children++
	t.mu.Unlock()
	return t.m.newTxn(t), nil
}

// Lock acquires item in the given mode for this transaction,
// blocking per the Moss rule.
func (t *Txn) Lock(item lock.Item, mode lock.Mode) error {
	if err := t.CheckOperable(); err != nil {
		return err
	}
	return t.m.locks.Lock(&t.rec, item, mode)
}

// terminate moves t to state to: Committing, or a terminal state. It
// fails if t already terminated or children are still active.
func (t *Txn) terminate(to State) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.finishableLocked(); err != nil {
		return err
	}
	if t.children > 0 {
		return fmt.Errorf("%w (txn %d)", ErrChildrenActive, t.ID())
	}
	t.state = to
	if to != Committing {
		t.m.live.Add(-1)
	}
	return nil
}

// Commit completes the transaction. For nested transactions, effects
// and locks are inherited by the parent; for top-level transactions,
// effects become permanent and locks are released. Pre-commit hooks
// (deferred rule firings) run first and may create subtransactions; a
// hook error aborts the transaction and is returned.
func (t *Txn) Commit() error {
	m := t.m
	if err := t.terminate(Committing); err != nil {
		return err
	}

	// Time user-visible top-level commits: hooks (deferred firings),
	// participant flush, WAL sync, lock release.
	if t.parent == nil && !t.Internal {
		tm := m.obsm.Timer(obs.HTxnCommit)
		defer tm.Done()
	}

	// §6.3: the Transaction Manager signals the commit event; the
	// Rule Manager processes deferred firings and replies; only then
	// does commit processing resume.
	for _, h := range m.hooks {
		if err := h(t); err != nil {
			abortErr := t.Abort()
			if abortErr != nil {
				return fmt.Errorf("txn: pre-commit hook failed (%w); abort also failed: %v", err, abortErr)
			}
			return fmt.Errorf("txn: aborted by pre-commit hook: %w", err)
		}
	}
	if err := t.terminate(Committed); err != nil {
		return err
	}

	var err error
	if parent := t.parent; parent != nil {
		for _, p := range m.parts {
			if perr := p.CommitNested(t.ID(), parent.ID()); perr != nil && err == nil {
				err = perr
			}
		}
		m.locks.Inherit(&t.rec)
	} else {
		// Independent top-level commits overlap here; the storage
		// layer exploits that by fsyncing outside its own lock and
		// batching the concurrent WAL flushes into one group commit.
		// Locks are released only after the participant reports the
		// effects durable.
		for _, p := range m.parts {
			if perr := p.CommitTop(t.ID()); perr != nil && err == nil {
				err = perr
			}
		}
		m.locks.Release(&t.rec)
	}
	t.finish(true)
	if err != nil {
		return fmt.Errorf("txn: participant commit: %w", err)
	}
	return nil
}

// Abort discards the transaction's effects and releases its locks.
// All children must already have terminated (the engine always waits
// for its rule-firing subtransactions before aborting a parent).
func (t *Txn) Abort() error {
	if err := t.terminate(Aborted); err != nil {
		return err
	}
	for _, p := range t.m.parts {
		p.AbortTxn(t.ID())
	}
	t.m.locks.Release(&t.rec)
	t.finish(false)
	return nil
}

// finish retires a terminated transaction: it leaves the index, its
// parent resumes once this was the last active child, and the
// listeners hear of it.
func (t *Txn) finish(committed bool) {
	m := t.m
	m.index.del(t.ID())
	if p := t.parent; p != nil {
		p.mu.Lock()
		p.children--
		p.mu.Unlock()
	}
	for _, l := range m.listen {
		l(t, committed)
	}
}
