package repl

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
)

// primaryNode is a durable store with commits driven through the real
// transaction manager, shipping its WAL on a loopback listener.
type primaryNode struct {
	t     *testing.T
	dir   string
	txns  *txn.Manager
	store *storage.Store
	prim  *Primary
	addr  string
}

func startPrimary(t *testing.T, opts storage.Options) *primaryNode {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	txns, _ := txn.NewSystem()
	store, err := storage.Open(txns, opts)
	if err != nil {
		t.Fatal(err)
	}
	txns.Register(store)
	prim := NewPrimary(store, obs.New(obs.Options{}).Metrics())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	go prim.Serve(ln)
	p := &primaryNode{t: t, dir: opts.Dir, txns: txns, store: store,
		prim: prim, addr: ln.Addr().String()}
	t.Cleanup(func() {
		p.prim.Close()
		p.store.Close()
	})
	return p
}

// commit lands one transaction writing the given records.
func (p *primaryNode) commit(recs ...storage.Record) {
	p.t.Helper()
	tx := p.txns.Begin()
	for _, rec := range recs {
		p.store.Put(tx.ID(), rec)
	}
	if err := tx.Commit(); err != nil {
		p.t.Fatal(err)
	}
}

func rec(oid datum.OID, class string, v int64) storage.Record {
	return storage.Record{OID: oid, Class: class,
		Attrs: map[string]datum.Value{"v": datum.Int(v)}}
}

// dumpReader is the read surface shared by Store and the test's
// canonical dump: a class scan over committed state.
type dumpReader interface {
	ScanClass(tx lock.TxnID, class string, fn func(storage.Object) bool)
}

// dumpTx is a transaction ID that never wrote anything, so every scan
// through it sees exactly the committed tier.
const dumpTx = lock.TxnID(1 << 56)

// dump renders the committed state of the given classes as one
// canonical string: OID-sorted records with key-sorted attributes.
// Two stores with equal dumps hold byte-equal logical state.
func dump(s dumpReader, classes ...string) string {
	var b strings.Builder
	for _, class := range classes {
		s.ScanClass(dumpTx, class, func(r storage.Object) bool {
			fmt.Fprintf(&b, "%s/%d:", r.Class, r.OID)
			r.Row.Range(func(k string, v datum.Value) { fmt.Fprintf(&b, " %s=%s", k, v.String()) })
			b.WriteByte('\n')
			return true
		})
	}
	return b.String()
}

// waitConverged blocks until the replica's applied frontier reaches
// the primary's current WAL end.
func waitConverged(t *testing.T, p *primaryNode, r *Replica, timeout time.Duration) {
	t.Helper()
	end := p.store.WAL().End()
	if !r.WaitApplied(end, timeout) {
		t.Fatalf("replica stuck at applied %d, want %d (status %+v)",
			r.AppliedLSN(), end, r.Status())
	}
}

// dialTracker wraps the TCP dialer so tests can sever the replica's
// live connection (simulating a network drop) or gate new dials
// (keeping it down while the primary moves on).
type dialTracker struct {
	addr string
	mu   sync.Mutex
	cur  net.Conn
	gate bool
}

func (d *dialTracker) dial(string) (net.Conn, error) {
	d.mu.Lock()
	blocked := d.gate
	d.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("dial gated")
	}
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.cur = c
	d.mu.Unlock()
	return c, nil
}

func (d *dialTracker) drop() {
	d.mu.Lock()
	c := d.cur
	d.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (d *dialTracker) setGate(on bool) {
	d.mu.Lock()
	d.gate = on
	d.mu.Unlock()
}

func TestReplicaBasicSync(t *testing.T) {
	p := startPrimary(t, storage.Options{})
	for i := 0; i < 20; i++ {
		p.commit(rec(datum.OID(100+i), "E", int64(i)))
	}

	r, err := Open(Options{Dir: t.TempDir(), PrimaryAddr: p.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitConverged(t, p, r, 5*time.Second)

	if got, want := dump(r.Store(), "E"), dump(p.store, "E"); got != want {
		t.Fatalf("replica state diverged:\n got: %q\nwant: %q", got, want)
	}

	// Live tail: new commits stream without a new handshake.
	p.commit(rec(100, "E", 999), rec(500, "E", 1))
	waitConverged(t, p, r, 5*time.Second)
	if got, want := dump(r.Store(), "E"), dump(p.store, "E"); got != want {
		t.Fatalf("replica state diverged after tail:\n got: %q\nwant: %q", got, want)
	}

	// The read path serves the replicated objects at the frontier.
	got, err := r.Get(500)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs["v"].String() != "1" {
		t.Fatalf("replica Get(500) = %v", got.Attrs)
	}

	st := r.Status()
	if st.Role != "replica" || st.Bootstraps != 1 || st.Generation != 1 {
		t.Fatalf("unexpected status %+v", st)
	}
	if st.AppliedLSN != uint64(p.store.WAL().End()) {
		t.Fatalf("status applied %d, want %d", st.AppliedLSN, p.store.WAL().End())
	}
	if err := r.AsyncError(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaCatchupAfterDisconnect(t *testing.T) {
	p := startPrimary(t, storage.Options{})
	for i := 0; i < 10; i++ {
		p.commit(rec(datum.OID(100+i), "E", int64(i)))
	}

	d := &dialTracker{addr: p.addr}
	r, err := Open(Options{Dir: t.TempDir(), PrimaryAddr: p.addr,
		Dial: d.dial, ReconnectDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitConverged(t, p, r, 5*time.Second)

	// Sever the connection, commit while the replica is down, and let
	// the automatic reconnect resume from the applied frontier — no
	// re-bootstrap, since the primary kept the WAL suffix.
	d.setGate(true)
	d.drop()
	for i := 0; i < 10; i++ {
		p.commit(rec(datum.OID(200+i), "E", int64(i)))
	}
	d.setGate(false)
	waitConverged(t, p, r, 5*time.Second)

	if got, want := dump(r.Store(), "E"), dump(p.store, "E"); got != want {
		t.Fatalf("replica state diverged after catchup:\n got: %q\nwant: %q", got, want)
	}
	st := r.Status()
	if st.Bootstraps != 1 {
		t.Fatalf("resume-path catchup re-bootstrapped: %+v", st)
	}
	if st.Reconnects == 0 {
		t.Fatalf("no reconnect counted: %+v", st)
	}
}

func TestReplicaRebootstrapAfterTruncation(t *testing.T) {
	p := startPrimary(t, storage.Options{})
	for i := 0; i < 10; i++ {
		p.commit(rec(datum.OID(100+i), "E", int64(i)))
	}

	d := &dialTracker{addr: p.addr}
	r, err := Open(Options{Dir: t.TempDir(), PrimaryAddr: p.addr,
		Dial: d.dial, ReconnectDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitConverged(t, p, r, 5*time.Second)
	applied := r.AppliedLSN()

	// While the replica is down, commit and compact so the primary's
	// WAL base moves past the replica's resume point.
	d.setGate(true)
	d.drop()
	for i := 0; i < 20; i++ {
		p.commit(rec(datum.OID(200+i), "E", int64(i)))
	}
	if _, err := p.store.Compact(); err != nil {
		t.Fatal(err)
	}
	if base := p.store.WAL().Base(); base <= applied {
		t.Fatalf("test setup: base %d did not pass applied %d", base, applied)
	}

	d.setGate(false)
	waitConverged(t, p, r, 5*time.Second)
	if got, want := dump(r.Store(), "E"), dump(p.store, "E"); got != want {
		t.Fatalf("replica state diverged after re-bootstrap:\n got: %q\nwant: %q", got, want)
	}
	st := r.Status()
	if st.Bootstraps != 2 || st.Generation != 2 {
		t.Fatalf("expected a second bootstrap generation, got %+v", st)
	}
	// The old generation directory is removed (asynchronously relative
	// to the applied frontier: the cleanup runs right after the swap).
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, err := os.ReadDir(r.opts.Dir)
		if err != nil {
			t.Fatal(err)
		}
		stale := ""
		for _, e := range entries {
			if e.Name() != currentFile && e.Name() != fmt.Sprintf("data-%06d", st.Generation) {
				stale = e.Name()
			}
		}
		if stale == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale entry %q left in replica root", stale)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaMonotonicReads is the staleness-bound e2e check: the
// applied frontier — the LSN every read is served at or above — never
// regresses, across connection drops, forced truncations, and a full
// replica restart from its own directory.
func TestReplicaMonotonicReads(t *testing.T) {
	p := startPrimary(t, storage.Options{})
	rdir := t.TempDir()
	d := &dialTracker{addr: p.addr}
	r, err := Open(Options{Dir: rdir, PrimaryAddr: p.addr,
		Dial: d.dial, ReconnectDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	var stopWatch atomic.Bool
	var regressed atomic.Bool
	var watched sync.WaitGroup
	watch := func(rep *Replica) {
		defer watched.Done()
		last := uint64(0)
		for !stopWatch.Load() {
			now := uint64(rep.AppliedLSN())
			if now < last {
				regressed.Store(true)
				return
			}
			last = now
		}
	}
	watched.Add(1)
	go watch(r)

	oid := datum.OID(0)
	for round := 0; round < 6; round++ {
		for i := 0; i < 10; i++ {
			oid++
			p.commit(rec(oid, "E", int64(oid)))
		}
		switch round % 3 {
		case 0:
			d.drop()
		case 1:
			d.setGate(true)
			d.drop()
			if _, err := p.store.Compact(); err != nil {
				t.Fatal(err)
			}
			d.setGate(false)
		}
		waitConverged(t, p, r, 10*time.Second)
	}

	// Restart the replica from its own directory: recovery must resume
	// at (or above) the pre-restart frontier, never below it.
	before := r.AppliedLSN()
	stopWatch.Store(true)
	watched.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = Open(Options{Dir: rdir, PrimaryAddr: p.addr,
		Dial: d.dial, ReconnectDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.AppliedLSN(); got < before {
		t.Fatalf("restart regressed applied: %d -> %d", before, got)
	}
	stopWatch.Store(false)
	watched.Add(1)
	go watch(r)

	for i := 0; i < 10; i++ {
		oid++
		p.commit(rec(oid, "E", int64(oid)))
	}
	waitConverged(t, p, r, 10*time.Second)
	stopWatch.Store(true)
	watched.Wait()
	if regressed.Load() {
		t.Fatal("applied LSN regressed")
	}
	if got, want := dump(r.Store(), "E"), dump(p.store, "E"); got != want {
		t.Fatalf("replica state diverged:\n got: %q\nwant: %q", got, want)
	}
}

// TestPromoteMidCatchup promotes a replica while the primary is still
// committing, then reopens the returned directory as a writable store
// and checks it recovered to a transactionally consistent prefix of
// the primary's history: commit i writes both a counter bump and a
// ledger object, so the recovered counter must exactly match the set
// of recovered ledger objects.
func TestPromoteMidCatchup(t *testing.T) {
	p := startPrimary(t, storage.Options{})
	const counter = datum.OID(1)
	const ledgerBase = datum.OID(1000)
	commitN := func(i int64) {
		p.commit(rec(counter, "E", i), rec(ledgerBase+datum.OID(i), "E", i))
	}
	for i := int64(1); i <= 5; i++ {
		commitN(i)
	}

	r, err := Open(Options{Dir: t.TempDir(), PrimaryAddr: p.addr,
		ReconnectDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !r.WaitApplied(1, 5*time.Second) {
		t.Fatalf("replica never bootstrapped: %+v", r.Status())
	}

	// Keep the primary committing while we promote.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(6); i <= 60; i++ {
			commitN(i)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	dir, err := r.Promote()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	promotedAt := r.AppliedLSN()
	if _, err := r.Get(counter); err != ErrPromoted {
		t.Fatalf("read after promote: err=%v, want ErrPromoted", err)
	}
	if _, err := r.Promote(); err != ErrPromoted {
		t.Fatalf("second promote: err=%v, want ErrPromoted", err)
	}

	// Reopen the handed-back directory as a writable store.
	txns, _ := txn.NewSystem()
	st, err := storage.Open(txns, storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	txns.Register(st)
	if end := st.WAL().End(); end != promotedAt {
		t.Fatalf("promoted store recovered to %d, want applied %d", end, promotedAt)
	}

	// Atomic-prefix consistency: counter == c implies ledger 1..c
	// present and c+1.. absent.
	cr, ok := st.Get(dumpTx, counter)
	if !ok {
		t.Fatal("promoted store lost the counter object")
	}
	c := cr.Record().Attrs["v"].AsInt()
	if c < 1 {
		t.Fatalf("counter %d", c)
	}
	for i := int64(1); i <= c; i++ {
		lr, ok := st.Get(dumpTx, ledgerBase+datum.OID(i))
		if !ok {
			t.Fatalf("counter %d but ledger %d missing (torn commit)", c, i)
		}
		if got := lr.Record().Attrs["v"].AsInt(); got != i {
			t.Fatalf("ledger %d holds %d", i, got)
		}
	}
	if _, ok := st.Get(dumpTx, ledgerBase+datum.OID(c+1)); ok {
		t.Fatalf("counter %d but ledger %d already present (future commit leaked)", c, c+1)
	}

	// The promoted store accepts new writes through the normal path.
	tx := txns.Begin()
	st.Put(tx.ID(), rec(counter, "E", 10_000))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Get(dumpTx, counter)
	if v := got.Record().Attrs["v"].AsInt(); v != 10_000 {
		t.Fatalf("write after promote: counter=%d", v)
	}
}

// TestReplicaStatusLagFields checks the lag instrumentation settles
// to zero on an idle, caught-up pair and that the primary's status
// counts its follower.
func TestReplicaStatusLagFields(t *testing.T) {
	p := startPrimary(t, storage.Options{})
	p.commit(rec(100, "E", 1))
	r, err := Open(Options{Dir: t.TempDir(), PrimaryAddr: p.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitConverged(t, p, r, 5*time.Second)

	// After a heartbeat interval the replica has seen the primary's
	// flushed frontier and reports zero byte lag.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.Status()
		if st.FlushedLSN == uint64(p.store.WAL().Flushed()) && st.LagBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag fields never settled: %+v", r.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ps := p.prim.Status()
	if ps.Role != "primary" || ps.Connections != 1 || ps.Batches == 0 {
		t.Fatalf("primary status %+v", ps)
	}
}
