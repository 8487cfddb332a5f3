// Package txn implements the HiPAC nested transaction model (§3.1 of
// the paper, after Moss): top-level transactions are atomic,
// serializable and permanent; nested transactions (subtransactions)
// are atomic and serializable against their siblings; a parent is
// suspended while its children execute; the effects of a
// subtransaction become permanent only when it and all its ancestors
// commit; aborting a transaction discards the effects of its entire
// subtree.
//
// The manager owns transaction identity and state, enforces parent
// suspension, coordinates the lock manager (lock inheritance at
// nested commit, release at abort/top commit), and drives registered
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
	mu       sync.Mutex
	nextID   lock.TxnID
	live     sync.Map // lock.TxnID -> *Txn, pruned at termination
	locks    *lock.Manager
	parts    []Participant
	hooks    []Hook
	listen   []Listener
	liveTxns int
	obsm     *obs.Metrics // nil-safe commit-latency observer
}

// SetObserver installs a commit-latency observer. Not safe to call
// concurrently with transaction processing.
func (m *Manager) SetObserver(o *obs.Metrics) { m.obsm = o }

// NewManager returns a transaction manager. The lock manager is
// created by the caller against the returned manager's topology; use
// Wire to connect them, or NewSystem for the common case.
func NewManager() *Manager {
	return &Manager{nextID: 1}
}

// NewSystem returns a transaction manager wired to a fresh lock
// manager.
func NewSystem() (*Manager, *lock.Manager) {
	m := NewManager()
	lm := lock.NewManager(m)
	m.locks = lm
	return m, lm
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

// IsAncestorOrSelf implements lock.Topology: it reports whether anc
// is desc or one of desc's transitive parents. Parent links are
// immutable, so only the initial id lookup needs synchronization.
func (m *Manager) IsAncestorOrSelf(anc, desc lock.TxnID) bool {
	if anc == desc {
		return true
	}
	v, ok := m.live.Load(desc)
	if !ok {
		return false
	}
	for t := v.(*Txn).parent; t != nil; t = t.parent {
		if t.id == anc {
			return true
		}
	}
	return false
}

// Parent implements storage.Topology: the id of tx's parent, false for
// a top-level or no longer live transaction.
func (m *Manager) Parent(tx lock.TxnID) (lock.TxnID, bool) {
	if v, ok := m.live.Load(tx); ok && v.(*Txn).parent != nil {
		return v.(*Txn).parent.id, true
	}
	return 0, false
}

// Find returns the live transaction with the given id. The Rule
// Manager uses it to locate the triggering transaction of an event
// signal; since signals are processed synchronously on the
// transaction's own goroutine, the returned handle is safe to use
// there.
func (m *Manager) Find(id lock.TxnID) (*Txn, bool) {
	v, ok := m.live.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*Txn), true
}

// Live reports the number of non-terminated transactions.
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveTxns
}

// Begin creates a new top-level transaction.
func (m *Manager) Begin() *Txn {
	return m.newTxn(nil)
}

func (m *Manager) newTxn(parent *Txn) *Txn {
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	t := &Txn{m: m, id: id, parent: parent}
	if parent != nil {
		t.Level = parent.Level + 1
		parent.activeChildren++
	}
	m.liveTxns++
	m.mu.Unlock()
	m.live.Store(id, t)
	return t
}

// Txn is one (top-level or nested) transaction. A Txn's operations
// are driven by one goroutine at a time; concurrent siblings each
// have their own Txn.
type Txn struct {
	m              *Manager
	id             lock.TxnID
	parent         *Txn
	state          State
	activeChildren int

	// DeferredData is an opaque slot the rule manager uses to hang
	// this transaction's deferred rule firings on (§6.3). It is
	// managed entirely above this package.
	DeferredData any

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
func (t *Txn) ID() lock.TxnID { return t.id }

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
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.state
}

// CheckOperable returns nil if the transaction may perform database
// operations now: it must be Active (or Committing, for operations
// issued by deferred rule firings) and not suspended by running
// children.
func (t *Txn) CheckOperable() error {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.checkOperableLocked()
}

func (t *Txn) checkOperableLocked() error {
	switch t.state {
	case Committed, Aborted:
		return fmt.Errorf("%w (txn %d, %s)", ErrFinished, t.id, t.state)
	}
	if t.activeChildren > 0 {
		return fmt.Errorf("%w (txn %d, %d children)", ErrSuspended, t.id, t.activeChildren)
	}
	return nil
}

// Child creates a nested transaction. The parent becomes suspended
// until every child terminates. Children may be created while the
// parent is Active or Committing (the latter supports deferred rule
// firings at commit, §6.3).
func (t *Txn) Child() (*Txn, error) {
	t.m.mu.Lock()
	if t.state == Committed || t.state == Aborted {
		t.m.mu.Unlock()
		return nil, fmt.Errorf("%w (txn %d)", ErrFinished, t.id)
	}
	t.m.mu.Unlock()
	return t.m.newTxn(t), nil
}

// Lock acquires item in the given mode for this transaction,
// blocking per the Moss rule.
func (t *Txn) Lock(item lock.Item, mode lock.Mode) error {
	if err := t.CheckOperable(); err != nil {
		return err
	}
	return t.m.locks.Acquire(t.id, item, mode)
}

// Commit completes the transaction. For nested transactions, effects
// and locks are inherited by the parent; for top-level transactions,
// effects become permanent and locks are released. Pre-commit hooks
// (deferred rule firings) run first and may create subtransactions; a
// hook error aborts the transaction and is returned.
func (t *Txn) Commit() error {
	m := t.m
	m.mu.Lock()
	if t.state == Committed || t.state == Aborted {
		m.mu.Unlock()
		return fmt.Errorf("%w (txn %d)", ErrFinished, t.id)
	}
	if t.activeChildren > 0 {
		m.mu.Unlock()
		return fmt.Errorf("%w (txn %d)", ErrChildrenActive, t.id)
	}
	t.state = Committing
	m.mu.Unlock()

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

	m.mu.Lock()
	if t.state != Committing { // hook aborted us concurrently
		st := t.state
		m.mu.Unlock()
		return fmt.Errorf("%w (txn %d, state %s)", ErrFinished, t.id, st)
	}
	if t.activeChildren > 0 {
		m.mu.Unlock()
		return fmt.Errorf("%w (txn %d after hooks)", ErrChildrenActive, t.id)
	}
	t.state = Committed
	m.liveTxns--
	parent := t.parent
	m.mu.Unlock()

	var err error
	if parent != nil {
		for _, p := range m.parts {
			if perr := p.CommitNested(t.id, parent.id); perr != nil && err == nil {
				err = perr
			}
		}
		m.locks.TransferToParent(t.id, parent.id)
	} else {
		// CommitTop runs outside m.mu, so independent top-level
		// commits overlap here; the storage layer exploits that by
		// fsyncing outside its own lock and batching the concurrent
		// WAL flushes into one group commit. Locks are released only
		// after the participant reports the effects durable.
		for _, p := range m.parts {
			if perr := p.CommitTop(t.id); perr != nil && err == nil {
				err = perr
			}
		}
		m.locks.ReleaseAll(t.id)
	}
	m.live.Delete(t.id)
	t.detachFromParent()
	for _, l := range m.listen {
		l(t, true)
	}
	if err != nil {
		return fmt.Errorf("txn: participant commit: %w", err)
	}
	return nil
}

// Abort discards the transaction's effects and releases its locks.
// All children must already have terminated (the engine always waits
// for its rule-firing subtransactions before aborting a parent).
func (t *Txn) Abort() error {
	m := t.m
	m.mu.Lock()
	if t.state == Committed || t.state == Aborted {
		m.mu.Unlock()
		return fmt.Errorf("%w (txn %d)", ErrFinished, t.id)
	}
	if t.activeChildren > 0 {
		m.mu.Unlock()
		return fmt.Errorf("%w (txn %d)", ErrChildrenActive, t.id)
	}
	t.state = Aborted
	m.liveTxns--
	m.mu.Unlock()

	for _, p := range m.parts {
		p.AbortTxn(t.id)
	}
	m.locks.ReleaseAll(t.id)
	m.live.Delete(t.id)
	t.detachFromParent()
	for _, l := range m.listen {
		l(t, false)
	}
	return nil
}

// detachFromParent decrements the parent's active-children count,
// resuming the parent when it reaches zero.
func (t *Txn) detachFromParent() {
	if t.parent == nil {
		return
	}
	m := t.m
	m.mu.Lock()
	t.parent.activeChildren--
	m.mu.Unlock()
}
