package lock

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTopology hands out a lock record per test transaction id, linked
// to the record of the parent given to setParent.
type fakeTopology struct {
	mu   sync.Mutex
	recs map[TxnID]*Owner
}

func newTopo() *fakeTopology { return &fakeTopology{recs: map[TxnID]*Owner{}} }

// setParent makes parent the parent of child; call it before child's
// record is first used, since a record's parent never changes.
func (f *fakeTopology) setParent(child, parent TxnID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	o := &Owner{}
	o.Init(child, f.ownerLocked(parent))
	f.recs[child] = o
}

func (f *fakeTopology) Owner(id TxnID) *Owner {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ownerLocked(id)
}

func (f *fakeTopology) ownerLocked(id TxnID) *Owner {
	o := f.recs[id]
	if o == nil {
		o = &Owner{}
		o.Init(id, nil)
		f.recs[id] = o
	}
	return o
}

// TryAcquire attempts the grant without blocking, reporting success.
func (m *Manager) TryAcquire(tx TxnID, item Item, mode Mode) bool {
	o := m.top.Owner(tx)
	st := m.stripeOf(item)
	st.mu.Lock()
	added, ok := st.grant(o, item, mode)
	st.mu.Unlock()
	if added != nil {
		o.add(added)
	}
	return ok
}

// TransferToParent is Inherit for the transaction with id child, whose
// record's parent is parent.
func (m *Manager) TransferToParent(child, parent TxnID) {
	o := m.top.Owner(child)
	if o.parent.id != parent {
		panic("TransferToParent: not the record's parent")
	}
	m.Inherit(o)
}

// heldMode is HeldMode for the transaction with id tx.
func (m *Manager) heldMode(tx TxnID, item Item) (Mode, bool) {
	return m.HeldMode(m.top.Owner(tx), item)
}

// heldItems returns the number of items tx holds a lock on.
func (m *Manager) heldItems(tx TxnID) int {
	o := m.top.Owner(tx)
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.held)
}

func TestSharedCompatible(t *testing.T) {
	m := NewManager(newTopo())
	if err := m.Acquire(1, "a", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "a", Shared); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.heldMode(1, "a"); !ok || got != Shared {
		t.Fatalf("HeldMode = %v, %v", got, ok)
	}
}

func TestExclusiveBlocksUnrelated(t *testing.T) {
	m := NewManager(newTopo())
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if m.TryAcquire(2, "a", Shared) {
		t.Fatal("unrelated txn acquired over X lock")
	}
	if m.TryAcquire(2, "a", Exclusive) {
		t.Fatal("unrelated txn acquired X over X lock")
	}
	// Blocked Acquire is granted once the holder releases.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, "a", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("acquire returned early: %v", err)
	default:
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMossAncestorRule(t *testing.T) {
	topo := newTopo()
	m := NewManager(topo)
	// 1 is top-level, 2 is its child, 3 is unrelated.
	topo.setParent(2, 1)
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	// A child may acquire over its (suspended) ancestor's lock.
	if err := m.Acquire(2, "a", Exclusive); err != nil {
		t.Fatalf("child blocked by ancestor's lock: %v", err)
	}
	// But a stranger may not — even over the child's hold.
	if m.TryAcquire(3, "a", Shared) {
		t.Fatal("stranger acquired over X locks")
	}
}

func TestGrandchildOverGrandparent(t *testing.T) {
	topo := newTopo()
	m := NewManager(topo)
	topo.setParent(2, 1)
	topo.setParent(3, 2)
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(3, "a", Exclusive); err != nil {
		t.Fatalf("grandchild should pass: %v", err)
	}
}

func TestSiblingConflict(t *testing.T) {
	topo := newTopo()
	m := NewManager(topo)
	topo.setParent(2, 1)
	topo.setParent(3, 1)
	if err := m.Acquire(2, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	// Sibling is NOT an ancestor: must block.
	if m.TryAcquire(3, "a", Exclusive) {
		t.Fatal("sibling acquired conflicting lock")
	}
}

func TestUpgrade(t *testing.T) {
	m := NewManager(newTopo())
	if err := m.Acquire(1, "a", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatalf("lone-holder upgrade failed: %v", err)
	}
	if got, _ := m.heldMode(1, "a"); got != Exclusive {
		t.Fatalf("mode after upgrade = %v", got)
	}
	// Downgrade requests are no-ops: mode stays Exclusive.
	if err := m.Acquire(1, "a", Shared); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.heldMode(1, "a"); got != Exclusive {
		t.Fatal("re-acquiring Shared must not weaken the held mode")
	}
}

func TestUpgradeBlockedByOtherReader(t *testing.T) {
	m := NewManager(newTopo())
	m.Acquire(1, "a", Shared)
	m.Acquire(2, "a", Shared)
	if m.TryAcquire(1, "a", Exclusive) {
		t.Fatal("upgrade granted despite concurrent reader")
	}
	m.ReleaseAll(2)
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two readers both try to upgrade: classic conversion deadlock.
	m := NewManager(newTopo())
	m.Acquire(1, "a", Shared)
	m.Acquire(2, "a", Shared)
	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(1, "a", Exclusive) }()
	time.Sleep(20 * time.Millisecond) // let txn 1 block
	go func() { errs <- m.Acquire(2, "a", Exclusive) }()
	var deadlocked, granted int
	for i := 0; i < 1; i++ { // at least the second requester must fail fast
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				deadlocked++
				// Simulate abort of the victim so the other side proceeds.
				if deadlocked == 1 {
					m.ReleaseAll(2)
					m.ReleaseAll(1)
				}
			} else if err == nil {
				granted++
			} else {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("neither requester resolved: undetected deadlock")
		}
	}
	if deadlocked == 0 {
		t.Fatal("conversion deadlock not detected")
	}
}

func TestTwoItemDeadlock(t *testing.T) {
	m := NewManager(newTopo())
	m.Acquire(1, "a", Exclusive)
	m.Acquire(2, "b", Exclusive)
	done1 := make(chan error, 1)
	go func() { done1 <- m.Acquire(1, "b", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Acquire(2, "a", Exclusive) // closes the cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// Victim aborts; survivor proceeds.
	m.ReleaseAll(2)
	if err := <-done1; err != nil {
		t.Fatalf("survivor: %v", err)
	}
}

func TestNestedDeadlockAcrossTrees(t *testing.T) {
	// Top-level A(1) holds a; top-level B(2) holds b. A's child (3)
	// wants b; B's child (4) wants a. The cycle runs through the
	// suspended parents and must be detected via delegation edges.
	topo := newTopo()
	m := NewManager(topo)
	topo.setParent(3, 1)
	topo.setParent(4, 2)
	m.Acquire(1, "a", Exclusive)
	m.Acquire(2, "b", Exclusive)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(3, "b", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Acquire(4, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cross-tree nested deadlock undetected: %v", err)
	}
	m.ReleaseAll(4)
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatalf("survivor child: %v", err)
	}
}

func TestTransferToParentUnblocksSibling(t *testing.T) {
	topo := newTopo()
	m := NewManager(topo)
	topo.setParent(2, 1)
	topo.setParent(3, 1)
	m.Acquire(2, "a", Exclusive)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(3, "a", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	// Sibling 2 commits: its lock moves to parent 1, which IS an
	// ancestor of 3, so 3 becomes grantable.
	m.TransferToParent(2, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, held := m.heldMode(2, "a"); held {
		t.Fatal("child still holds after transfer")
	}
	if got, ok := m.heldMode(1, "a"); !ok || got != Exclusive {
		t.Fatalf("parent hold after transfer = %v, %v", got, ok)
	}
}

func TestTransferKeepsStrongestMode(t *testing.T) {
	topo := newTopo()
	m := NewManager(topo)
	topo.setParent(2, 1)
	m.Acquire(1, "a", Shared)
	m.Acquire(2, "a", Exclusive)
	m.TransferToParent(2, 1)
	if got, _ := m.heldMode(1, "a"); got != Exclusive {
		t.Fatalf("parent mode = %v, want X", got)
	}
}

func TestReleaseAllDropsEverything(t *testing.T) {
	m := NewManager(newTopo())
	m.Acquire(1, "a", Exclusive)
	m.Acquire(1, "b", Shared)
	if m.heldItems(1) != 2 {
		t.Fatalf("HeldItems = %d", m.heldItems(1))
	}
	m.ReleaseAll(1)
	if m.heldItems(1) != 0 {
		t.Fatal("locks survived ReleaseAll")
	}
}

func TestStats(t *testing.T) {
	m := NewManager(newTopo())
	m.Acquire(1, "a", Exclusive)
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.ReleaseAll(1)
	}()
	m.Acquire(2, "a", Exclusive)
	s := m.Stats()
	if s.Acquired < 2 || s.Waited < 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentStress(t *testing.T) {
	// Many top-level transactions hammer a small item space with
	// deterministic lock ordering (no deadlocks possible); every
	// acquire must eventually succeed and counters must balance.
	m := NewManager(newTopo())
	const workers = 16
	const rounds = 200
	items := []Item{"i0", "i1", "i2", "i3"}
	var wg sync.WaitGroup
	var acquired atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := TxnID(w + 1)
			for r := 0; r < rounds; r++ {
				// Ascending item order prevents cycles.
				for _, it := range items {
					if err := m.Acquire(tx, it, Exclusive); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					acquired.Add(1)
				}
				m.ReleaseAll(tx)
			}
		}(w)
	}
	wg.Wait()
	if got := acquired.Load(); got != workers*rounds*int64(len(items)) {
		t.Fatalf("acquired %d", got)
	}
}

func TestSharedThenManyReaders(t *testing.T) {
	m := NewManager(newTopo())
	var wg sync.WaitGroup
	for i := 1; i <= 50; i++ {
		wg.Add(1)
		go func(tx TxnID) {
			defer wg.Done()
			if err := m.Acquire(tx, "hot", Shared); err != nil {
				t.Error(err)
			}
		}(TxnID(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("readers should never block each other")
	}
}

// waitBlocked spins until tx has recorded a wait.
func waitBlocked(t *testing.T, m *Manager, tx TxnID) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if m.top.Owner(tx).wait.Load() != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("txn %d never blocked", tx)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInheritanceClosedCycleIsDetected(t *testing.T) {
	// A cycle can be closed by lock inheritance instead of by a new
	// wait: 1 waits for a held by child 11; 12, another child of 10,
	// waits for b held by 1. Nothing is wrong until 11 commits and a
	// passes to the suspended parent 10 — then 1 -> 10 -> 12 -> 1.
	// The woken waiter must notice, although it was already blocked
	// and probed clean before.
	topo := newTopo()
	topo.setParent(11, 10)
	topo.setParent(12, 10)
	m := NewManager(topo)
	if err := m.Acquire(11, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(12, "b", Exclusive) }()
	waitBlocked(t, m, 12)
	go func() { errs <- m.Acquire(1, "a", Exclusive) }()
	waitBlocked(t, m, 1)
	select {
	case err := <-errs:
		t.Fatalf("a wait resolved before the cycle existed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.TransferToParent(11, 10)
	select {
	case err := <-errs:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("waiter resolved with %v, want a deadlock", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cycle closed by inheritance went undetected")
	}
}

func TestHotItemHandoffDoesNotReprobe(t *testing.T) {
	// Many transactions queue for one item while each holder keeps it
	// a little: a release wakes them all, and each goes back to sleep
	// without probing for deadlock again. (Probing on every wakeup made
	// one handoff cost milliseconds at 512 waiters.)
	const waiters, rounds = 256, 4
	m := NewManager(newTopo())
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := TxnID(1 + g + i*waiters)
				if err := m.Acquire(tx, "hot", Exclusive); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(20 * time.Microsecond)
				m.ReleaseAll(tx)
			}
		}(g)
	}
	wg.Wait()
	// One probe per request that blocked, none per wakeup.
	st := m.Stats()
	if st.Acquired != waiters*rounds || st.Waited < waiters/2 {
		t.Fatalf("stats = %+v: the item was not contended", st)
	}
	if probes := m.nProbes.Load(); probes != st.Waited {
		t.Fatalf("%d deadlock probes for %d blocked requests", probes, st.Waited)
	}
}

func TestProbeDiscardsCycleThroughFinishedWaiter(t *testing.T) {
	// Siblings 2 and 3 of transaction 1 wait for "a". 3's probe may
	// read 2's wait, and find 2 in 1's blocked set, after 2 was
	// granted, committed into 1 and left. A finished transaction keeps
	// its record's parent link, so 1's inherited lock is still an
	// ancestor's lock to 2, not a blocker, and 1's waiting descendant 3
	// closes no cycle through it.
	topo := newTopo()
	topo.setParent(2, 1)
	topo.setParent(3, 1)
	m := NewManager(topo)
	if err := m.Acquire(2, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	topo.Owner(2).block("a", Exclusive)
	topo.Owner(3).block("a", Exclusive)
	m.TransferToParent(2, 1)
	if m.inCycle(topo.Owner(3)) {
		t.Fatal("a cycle through a finished waiter was reported as a deadlock")
	}
}

func TestQueuedSiblingsLeaveBlockedSets(t *testing.T) {
	// Children of 1, and a grandchild of 1 through each, queue for one
	// item held by another child, as a wave of immediate firings does.
	// Each blocked grandchild is in its parent's and 1's set while it
	// waits, and a grant takes it out of both: once every request is
	// granted and committed into 1, no record is left waiting or
	// listing a blocked descendant.
	const n = 64
	topo := newTopo()
	topo.setParent(2, 1)
	for c := TxnID(3); c < 3+n; c++ {
		topo.setParent(c, 1)
		topo.setParent(c+n, c)
	}
	m := NewManager(topo)
	if err := m.Acquire(2, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := TxnID(3 + n); g < 3+2*n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Acquire(g, "a", Exclusive); err != nil {
				t.Error(err)
				return
			}
			m.TransferToParent(g, g-n)
			m.TransferToParent(g-n, 1)
		}()
	}
	for g := TxnID(3 + n); g < 3+2*n; g++ {
		waitBlocked(t, m, g)
	}
	// block fills the ancestors' sets under the stripe, after storing
	// the wait that waitBlocked saw.
	st := m.stripeOf("a")
	st.mu.Lock()
	st.mu.Unlock()
	blocked := func(o *Owner) int {
		o.mu.Lock()
		defer o.mu.Unlock()
		return len(o.blocked)
	}
	if got := blocked(topo.Owner(1)); got != n {
		t.Fatalf("1 lists %d blocked descendants, want %d", got, n)
	}
	m.TransferToParent(2, 1)
	wg.Wait()
	for tx := TxnID(1); tx < 3+2*n; tx++ {
		if o := topo.Owner(tx); o.wait.Load() != nil || blocked(o) != 0 {
			t.Fatalf("txn %d: wait %v, %d blocked descendants after every grant", tx, o.wait.Load(), blocked(o))
		}
	}
}

func TestDeadlockThroughGrandchildren(t *testing.T) {
	// Top-levels 1 and 2 hold a and b. 5, a grandchild of 1 through 3,
	// wants b; 6, a grandchild of 2 through 4, wants a. The cycle
	// 6 -> 1 -> 5 -> 2 -> 6 closes only through the delegation edges
	// from each top-level to its blocked grandchild: a waiter listed on
	// its parent's record alone leaves 1 and 2 with no blocked
	// descendants, and the cycle goes unseen.
	topo := newTopo()
	topo.setParent(3, 1)
	topo.setParent(5, 3)
	topo.setParent(4, 2)
	topo.setParent(6, 4)
	m := NewManager(topo)
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	type result struct {
		tx  TxnID
		err error
	}
	res := make(chan result, 2)
	acquire := func(tx TxnID, item Item) {
		res <- result{tx, m.Acquire(tx, item, Exclusive)}
	}
	go acquire(5, "b")
	waitBlocked(t, m, 5)
	go acquire(6, "a")
	// Either grandchild may be the one whose probe sees the cycle.
	var victim result
	select {
	case victim = <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock through grandchildren went undetected")
	}
	if !errors.Is(victim.err, ErrDeadlock) {
		t.Fatalf("txn %d resolved with %v, want a deadlock", victim.tx, victim.err)
	}
	// The victim's tree aborts, freeing the survivor's item.
	m.ReleaseAll(map[TxnID]TxnID{5: 1, 6: 2}[victim.tx])
	if survivor := <-res; survivor.err != nil {
		t.Fatalf("survivor txn %d: %v", survivor.tx, survivor.err)
	}
}

func TestProbeCostIndependentOfOtherWaiters(t *testing.T) {
	// 4 000 transactions wait for one hot item. One more waiter's probe
	// reaches only the item's holder, so what it allocates must not
	// grow with the waiters it never reaches: a blocking request must
	// not cost more the longer the queue it joins. The waits are
	// recorded directly, as Lock records them, so no waiter goroutine
	// runs while the probe is measured.
	const waiters = 4000
	topo := newTopo()
	m := NewManager(topo)
	if err := m.Acquire(1, "hot", Exclusive); err != nil {
		t.Fatal(err)
	}
	for tx := TxnID(2); tx < 2+waiters; tx++ {
		topo.Owner(tx).block("hot", Exclusive)
	}
	probe := topo.Owner(2 + waiters)
	probe.block("hot", Exclusive)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if m.inCycle(probe) {
			t.Fatal("a queue on one item was reported as a deadlock")
		}
	}
	runtime.ReadMemStats(&after)
	perProbe := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per probe", perProbe)
	if perProbe > 1<<10 {
		t.Fatalf("one probe allocated %d bytes beside %d waiters", perProbe, waiters)
	}
}
