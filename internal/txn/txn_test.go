package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
)

// recorder is a Participant that records completion calls.
type recorder struct {
	mu     sync.Mutex
	events []string
	fail   error // returned from commit calls when set
}

func (r *recorder) log(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, s)
}

func (r *recorder) CommitNested(child, parent lock.TxnID) error {
	r.log(fmt.Sprintf("nested %d->%d", child, parent))
	return r.fail
}

func (r *recorder) CommitTop(top lock.TxnID) error {
	r.log(fmt.Sprintf("top %d", top))
	return r.fail
}

func (r *recorder) AbortTxn(tx lock.TxnID) {
	r.log(fmt.Sprintf("abort %d", tx))
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

func TestTopLevelCommit(t *testing.T) {
	m, _ := NewSystem()
	rec := &recorder{}
	m.Register(rec)
	tx := m.Begin()
	if !tx.IsTop() || tx.Level != 0 {
		t.Fatal("Begin should make a top-level txn")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed {
		t.Fatalf("state = %v", tx.State())
	}
	ev := rec.snapshot()
	if len(ev) != 1 || ev[0] != fmt.Sprintf("top %d", tx.ID()) {
		t.Fatalf("events = %v", ev)
	}
	if m.Live() != 0 {
		t.Fatalf("Live = %d", m.Live())
	}
}

func TestNestedCommitFoldsToParent(t *testing.T) {
	m, _ := NewSystem()
	rec := &recorder{}
	m.Register(rec)
	parent := m.Begin()
	child, err := parent.Child()
	if err != nil {
		t.Fatal(err)
	}
	if child.Level != 1 || child.Parent() != parent || child.Top() != parent {
		t.Fatal("child topology wrong")
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Commit(); err != nil {
		t.Fatal(err)
	}
	ev := rec.snapshot()
	want := []string{
		fmt.Sprintf("nested %d->%d", child.ID(), parent.ID()),
		fmt.Sprintf("top %d", parent.ID()),
	}
	if fmt.Sprint(ev) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", ev, want)
	}
}

func TestParentSuspendedWhileChildActive(t *testing.T) {
	m, _ := NewSystem()
	parent := m.Begin()
	child, _ := parent.Child()
	err := parent.CheckOperable()
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("parent operable with active child: %v", err)
	}
	if err := parent.Lock("x", lock.Shared); !errors.Is(err, ErrSuspended) {
		t.Fatalf("Lock while suspended: %v", err)
	}
	if err := parent.Commit(); !errors.Is(err, ErrChildrenActive) {
		t.Fatalf("Commit with active child: %v", err)
	}
	if err := parent.Abort(); !errors.Is(err, ErrChildrenActive) {
		t.Fatalf("Abort with active child: %v", err)
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := parent.CheckOperable(); err != nil {
		t.Fatalf("parent should resume after child commit: %v", err)
	}
	parent.Commit()
}

func TestSiblingsRunConcurrently(t *testing.T) {
	m, _ := NewSystem()
	parent := m.Begin()
	const n = 8
	var wg sync.WaitGroup
	children := make([]*Txn, n)
	for i := range children {
		c, err := parent.Child()
		if err != nil {
			t.Fatal(err)
		}
		children[i] = c
	}
	gate := make(chan struct{})
	for _, c := range children {
		wg.Add(1)
		go func(c *Txn) {
			defer wg.Done()
			<-gate
			if err := c.Lock(lock.Item(fmt.Sprintf("i%d", c.ID())), lock.Exclusive); err != nil {
				t.Error(err)
			}
			if err := c.Commit(); err != nil {
				t.Error(err)
			}
		}(c)
	}
	close(gate)
	wg.Wait()
	if err := parent.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLockInheritanceAtNestedCommit(t *testing.T) {
	m, lm := NewSystem()
	parent := m.Begin()
	child, _ := parent.Child()
	if err := child.Lock("obj", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if mode, held := lm.HeldMode(&parent.rec, "obj"); !held || mode != lock.Exclusive {
		t.Fatalf("parent hold = %v %v; lock not inherited", mode, held)
	}
	if _, held := lm.HeldMode(&child.rec, "obj"); held {
		t.Fatal("child still holds after commit")
	}
	parent.Commit()
	if _, held := lm.HeldMode(&parent.rec, "obj"); held {
		t.Fatal("lock survived top-level commit")
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	m, lm := NewSystem()
	rec := &recorder{}
	m.Register(rec)
	tx := m.Begin()
	tx.Lock("obj", lock.Exclusive)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, held := lm.HeldMode(&tx.rec, "obj"); held {
		t.Fatal("lock survived abort")
	}
	if ev := rec.snapshot(); len(ev) != 1 || ev[0] != fmt.Sprintf("abort %d", tx.ID()) {
		t.Fatalf("events = %v", ev)
	}
	if tx.State() != Aborted {
		t.Fatalf("state = %v", tx.State())
	}
}

func TestDoubleCompleteFails(t *testing.T) {
	m, _ := NewSystem()
	tx := m.Begin()
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrFinished) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrFinished) {
		t.Fatalf("abort after commit: %v", err)
	}
	if _, err := tx.Child(); !errors.Is(err, ErrFinished) {
		t.Fatalf("child of finished txn: %v", err)
	}
}

func TestPreCommitHookRunsAndCanSpawnChildren(t *testing.T) {
	m, _ := NewSystem()
	var hookState State
	var childOK bool
	m.AddPreCommitHook(func(t *Txn) error {
		if !t.IsTop() {
			return nil // hooks run on every commit; only act on the top txn
		}
		hookState = t.State()
		c, err := t.Child()
		if err != nil {
			return err
		}
		childOK = c.Commit() == nil
		return nil
	})
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if hookState != Committing {
		t.Fatalf("hook saw state %v, want Committing", hookState)
	}
	if !childOK {
		t.Fatal("hook could not run a subtransaction")
	}
}

func TestPreCommitHookErrorAborts(t *testing.T) {
	m, _ := NewSystem()
	rec := &recorder{}
	m.Register(rec)
	boom := errors.New("deferred condition failed")
	m.AddPreCommitHook(func(*Txn) error { return boom })
	tx := m.Begin()
	err := tx.Commit()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("commit error = %v", err)
	}
	if tx.State() != Aborted {
		t.Fatalf("state = %v, want Aborted", tx.State())
	}
	if ev := rec.snapshot(); len(ev) != 1 || ev[0] != fmt.Sprintf("abort %d", tx.ID()) {
		t.Fatalf("events = %v", ev)
	}
}

func TestHooksRunOnNestedCommitToo(t *testing.T) {
	m, _ := NewSystem()
	var seen []lock.TxnID
	m.AddPreCommitHook(func(t *Txn) error {
		seen = append(seen, t.ID())
		return nil
	})
	parent := m.Begin()
	child, _ := parent.Child()
	child.Commit()
	parent.Commit()
	if len(seen) != 2 || seen[0] != child.ID() || seen[1] != parent.ID() {
		t.Fatalf("hook ids = %v", seen)
	}
}

func TestListeners(t *testing.T) {
	m, _ := NewSystem()
	type evt struct {
		id        lock.TxnID
		committed bool
	}
	var mu sync.Mutex
	var events []evt
	m.AddListener(func(t *Txn, committed bool) {
		mu.Lock()
		events = append(events, evt{t.ID(), committed})
		mu.Unlock()
	})
	t1 := m.Begin()
	t1.Commit()
	t2 := m.Begin()
	t2.Abort()
	if len(events) != 2 || !events[0].committed || events[1].committed {
		t.Fatalf("events = %v", events)
	}
}

func TestParticipantErrorSurfacesFromCommit(t *testing.T) {
	m, _ := NewSystem()
	rec := &recorder{fail: errors.New("disk full")}
	m.Register(rec)
	tx := m.Begin()
	if err := tx.Commit(); err == nil {
		t.Fatal("participant failure swallowed")
	}
}

func TestCascadingTreeDepth(t *testing.T) {
	m, _ := NewSystem()
	root := m.Begin()
	cur := root
	var chain []*Txn
	for i := 0; i < 6; i++ {
		c, err := cur.Child()
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, c)
		cur = c
	}
	if cur.Level != 6 || cur.Top() != root {
		t.Fatalf("level = %d", cur.Level)
	}
	// Innermost-out commit order.
	for i := len(chain) - 1; i >= 0; i-- {
		if err := chain[i].Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 0 {
		t.Fatalf("Live = %d", m.Live())
	}
}

func TestIsAncestorOrSelf(t *testing.T) {
	m, _ := NewSystem()
	a := m.Begin()
	b, _ := a.Child()
	c, _ := b.Child()
	other := m.Begin()
	cases := []struct {
		anc, desc lock.TxnID
		want      bool
	}{
		{a.ID(), a.ID(), true},
		{a.ID(), b.ID(), true},
		{a.ID(), c.ID(), true},
		{b.ID(), c.ID(), true},
		{c.ID(), a.ID(), false},
		{other.ID(), c.ID(), false},
		{b.ID(), a.ID(), false},
	}
	for _, tc := range cases {
		if got := m.IsAncestorOrSelf(tc.anc, tc.desc); got != tc.want {
			t.Errorf("IsAncestorOrSelf(%d,%d) = %v, want %v", tc.anc, tc.desc, got, tc.want)
		}
	}
}

func TestSiblingSerializationThroughLocks(t *testing.T) {
	// Two siblings contend on one item; the lock manager must
	// serialize them, and the loser must proceed after the winner
	// commits (lock inherited by suspended parent = ancestor).
	m, _ := NewSystem()
	parent := m.Begin()
	c1, _ := parent.Child()
	c2, _ := parent.Child()
	got1 := make(chan error, 1)
	if err := c1.Lock("hot", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	go func() { got1 <- c2.Lock("hot", lock.Exclusive) }()
	select {
	case err := <-got1:
		t.Fatalf("sibling acquired conflicting lock immediately: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got1; err != nil {
		t.Fatalf("sibling not unblocked by commit: %v", err)
	}
	c2.Commit()
	parent.Commit()
}

func TestUniqueIncreasingIDs(t *testing.T) {
	m, _ := NewSystem()
	var prev lock.TxnID
	for i := 0; i < 100; i++ {
		tx := m.Begin()
		if tx.ID() <= prev {
			t.Fatal("ids must be strictly increasing")
		}
		prev = tx.ID()
		tx.Commit()
	}
}

func TestConcurrentTopLevelStress(t *testing.T) {
	m, _ := NewSystem()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tx := m.Begin()
				c, err := tx.Child()
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Lock(lock.Item(fmt.Sprintf("it%d", i%7)), lock.Exclusive); err != nil {
					c.Abort()
					tx.Abort()
					continue
				}
				if err := c.Commit(); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m.Live() != 0 {
		t.Fatalf("Live = %d after stress", m.Live())
	}
}

func TestFiringTxnAllocationBudget(t *testing.T) {
	// Every rule firing runs in a transaction of its own: the firing's
	// path through this package and the lock manager — begin, the rule
	// read lock, a child, two commits — allocates the two Txns and the
	// parent's held-lock list, and nothing per grant or per id.
	m, _ := NewSystem()
	allocs := testing.AllocsPerRun(1000, func() {
		tx := m.Begin()
		if err := tx.Lock("obj/#14", lock.Shared); err != nil {
			t.Fatal(err)
		}
		c, err := tx.Child()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("a firing's transaction made %v allocations, budget 4", allocs)
	}
}
