package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/failpoint"
	"repro/internal/lock"
)

// crashCapture is the on-disk state of a store "at the instant of a
// crash", plus the workload model needed to judge recovery. The test
// copies files rather than killing a process: every durability
// decision (what is in which file when) is identical, and the copy is
// taken at a failpoint inside the operation under test.
type crashCapture struct {
	wal, snapshot []byte
	deltas        map[string][]byte
	// acked is each object's newest acknowledged value BEFORE the
	// files were read; attempted is each object's newest attempted
	// value AFTER. Together they bracket the recovered state:
	// acked[oid] <= recovered[oid] <= attempted[oid].
	acked, attempted map[datum.OID]int64
}

// crashSites are the failpoints the matrix samples: the WAL append
// and fsync paths, the three danger windows of the full-snapshot
// path (written but not fsynced/renamed; renamed but directory not
// synced; everything durable but the WAL not yet truncated), and the
// delta-chain windows (mid-delta write, delta renamed but WAL not
// truncated, full snapshot renamed but stale deltas not yet removed).
var crashSites = []string{
	"wal.afterAppend",
	"wal.afterFsync",
	"storage.midSnapshot",
	"storage.afterRename",
	"storage.beforeTruncate",
	"storage.midDelta",
	"storage.afterDeltaRename",
	"storage.midCompaction",
}

// ckptSite reports whether a site fires at most once per checkpoint
// (so its hit budget must stay small to bound wall-clock time).
func ckptSite(site string) bool {
	switch site {
	case "storage.midSnapshot", "storage.afterRename", "storage.beforeTruncate",
		"storage.midDelta", "storage.afterDeltaRename", "storage.midCompaction":
		return true
	}
	return false
}

// TestCrashInjectionMatrix samples ~50 crash points from a seeded
// PRNG. Each round runs concurrent committers plus an active fuzzy
// checkpointer against a durable store, "crashes" at the Nth hit of a
// chosen failpoint, reopens the captured state, and asserts no
// acknowledged commit is lost and no value appears that was never
// written.
func TestCrashInjectionMatrix(t *testing.T) {
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	rng := rand.New(rand.NewSource(0x41c71bc))
	for r := 0; r < rounds; r++ {
		site := crashSites[rng.Intn(len(crashSites))]
		// WAL sites fire on every commit (cheap); the checkpoint sites
		// need a full multi-fsync checkpoint per hit, so keep their
		// counts low to bound wall-clock time.
		hits := 1 + rng.Intn(10)
		if ckptSite(site) {
			hits = 1 + rng.Intn(3)
		}
		// Vary the chain shape: frequent compactions, mostly-delta
		// chains, and (except for the compaction site, which needs
		// compactions to fire often) chains only the size threshold
		// compacts.
		compactEvery := []int{2, 4, 1000}[rng.Intn(3)]
		if site == "storage.midCompaction" && compactEvery > 4 {
			compactEvery = 2
		}
		t.Run(fmt.Sprintf("r%02d-%s-hit%d-k%d", r, site, hits, compactEvery), func(t *testing.T) {
			runCrashRound(t, site, hits, compactEvery)
		})
	}
}

// padBase commits, as transaction tx of each store, a 256-row class
// nobody updates: deltas of a few records then stay far below the
// stores' size threshold, and a chain compacts only when the test
// calls Compact.
func padBase(t *testing.T, tx lock.TxnID, stores ...*Store) {
	t.Helper()
	for _, s := range stores {
		for i := 0; i < 256; i++ {
			s.Put(tx, rec(datum.OID(1000+i), "Pad", map[string]datum.Value{"v": datum.Int(int64(i))}))
		}
		if err := s.CommitTop(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// runCrashRound's checkpointer forces a compaction after every
// compactEvery deltas.
func runCrashRound(t *testing.T, site string, hits, compactEvery int) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	padBase(t, 1, s)

	const writers = 4
	var mu sync.Mutex
	acked := map[datum.OID]int64{}
	attempted := map[datum.OID]int64{}
	var cap *crashCapture
	var capOnce sync.Once
	captured := make(chan struct{})

	// doCapture freezes "the crash". Read order is load-bearing:
	// acked before the files (a commit acknowledged before the copy
	// began is certainly on disk in the copy — one-sided lower bound),
	// the WAL before the chain files (chain coverage only grows, and
	// the checkpointer truncates the WAL only after the covering
	// element's rename, so a later chain always covers an earlier
	// WAL's base), deltas before the full snapshot (a compaction
	// racing the copy then yields a *newer* full snapshot whose
	// coverage subsumes the stale deltas — which its CRC link makes
	// recovery ignore — never an older one missing the deltas'
	// coverage), and attempted after everything (an upper bound on any
	// value the copied files can hold). It runs on whatever goroutine
	// hit the failpoint — possibly holding WAL or checkpoint internals
	// — so it must not call back into the store.
	doCapture := func() {
		capOnce.Do(func() {
			c := &crashCapture{acked: map[datum.OID]int64{}, attempted: map[datum.OID]int64{},
				deltas: map[string][]byte{}}
			mu.Lock()
			for k, v := range acked {
				c.acked[k] = v
			}
			mu.Unlock()
			c.wal, _ = os.ReadFile(filepath.Join(dir, "wal"))
			if names, _, err := deltaFiles(dir); err == nil {
				for _, name := range names {
					if buf, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
						c.deltas[name] = buf
					}
				}
			}
			c.snapshot, _ = os.ReadFile(filepath.Join(dir, "snapshot"))
			mu.Lock()
			for k, v := range attempted {
				c.attempted[k] = v
			}
			mu.Unlock()
			cap = c
			close(captured)
		})
	}
	var hitCount atomic.Int32
	failpoint.Set(site, func() {
		if int(hitCount.Add(1)) == hits {
			doCapture()
		}
	})
	defer failpoint.ClearAll()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			oid := datum.OID(w + 1)
			for v := int64(1); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				attempted[oid] = v
				mu.Unlock()
				tx := lock.TxnID(uint64(w+1)*1_000_000 + uint64(v))
				s.Put(tx, rec(oid, "K", map[string]datum.Value{"v": datum.Int(v)}))
				if err := s.CommitTop(tx); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[oid] = v
				mu.Unlock()
			}
		}(w)
	}
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for deltas := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			ckpt := s.Checkpoint
			if deltas >= compactEvery {
				ckpt = s.Compact
			}
			res, err := ckpt()
			if err != nil {
				t.Error(err)
				return
			}
			switch {
			case res.Kind == "full":
				deltas = 0
			case res.Records > 0: // an idle checkpoint writes no delta
				deltas++
			}
		}
	}()

	select {
	case <-captured:
	case <-time.After(8 * time.Second):
		// The site never accumulated enough hits under this workload;
		// crash at an arbitrary instant instead — still a valid sample.
		doCapture()
	}
	close(stop)
	wg.Wait()
	<-ckptDone
	failpoint.ClearAll()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	// "Reboot" from the captured state.
	cdir := t.TempDir()
	if cap.wal != nil {
		if err := os.WriteFile(filepath.Join(cdir, "wal"), cap.wal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if cap.snapshot != nil {
		if err := os.WriteFile(filepath.Join(cdir, "snapshot"), cap.snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, buf := range cap.deltas {
		if err := os.WriteFile(filepath.Join(cdir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(newTopo(), Options{Dir: cdir, NoSync: true})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()

	reader := lock.TxnID(1)
	for oid, want := range cap.acked {
		got, ok := s2.Get(reader, oid)
		if !ok {
			t.Errorf("object %d: acknowledged commit (v=%d) lost", oid, want)
			continue
		}
		v := got.AsMap()["v"].AsInt()
		if v < want {
			t.Errorf("object %d: recovered v=%d older than acknowledged v=%d", oid, v, want)
		}
		if max := cap.attempted[oid]; v > max {
			t.Errorf("object %d: recovered v=%d was never written (max attempted %d)", oid, v, max)
		}
	}
	// Nothing recovered may exceed what was ever attempted.
	s2.ScanClass(reader, "K", func(r Object) bool {
		if max, ok := cap.attempted[r.OID]; !ok || r.AsMap()["v"].AsInt() > max {
			t.Errorf("object %d: phantom recovered value %d", r.OID, r.AsMap()["v"].AsInt())
		}
		return true
	})
}

// TestDeltaChainCrashSites drives each delta-chain danger window
// directly, with enough checkpoints first that the crash lands on a
// chain of >= 3 deltas while committers are running: mid-delta write
// (tmp exists, rename pending), delta renamed but WAL not truncated,
// and mid-compaction (new full snapshot renamed, stale deltas still
// on disk). Recovery must still satisfy the acknowledged-commit
// bracket.
func TestDeltaChainCrashSites(t *testing.T) {
	cases := []struct {
		site               string
		hits, compactEvery int
	}{
		// No forced compaction; the fifth delta write crashes with
		// deltas 1-4 durable.
		{"storage.midDelta", 5, 1000},
		{"storage.afterDeltaRename", 5, 1000},
		// Hit 1 is the initial full snapshot; hit 2 is the compaction
		// after deltas 1-3, crashing before their removal.
		{"storage.midCompaction", 2, 3},
	}
	for _, c := range cases {
		t.Run(c.site, func(t *testing.T) {
			runCrashRound(t, c.site, c.hits, c.compactEvery)
		})
	}
}

// TestSnapshotCrashBetweenWriteAndRename is the regression test for
// the original durability bug: Checkpoint wrote snapshot.tmp and
// renamed it with no fsync, then truncated the whole WAL — a crash in
// between lost everything. Now the crash window must be harmless: the
// WAL is untouched until the snapshot is durably in place, and
// recovery ignores snapshot.tmp.
func TestSnapshotCrashBetweenWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[datum.OID]int64{}
	for i := 0; i < 5; i++ {
		oid := s.AllocOID()
		v := int64(i * 10)
		s.Put(lock.TxnID(i+1), rec(oid, "C", map[string]datum.Value{"v": datum.Int(v)}))
		if err := s.CommitTop(lock.TxnID(i + 1)); err != nil {
			t.Fatal(err)
		}
		want[oid] = v
	}

	var walCopy, snapCopy, tmpCopy []byte
	failpoint.Set("storage.midSnapshot", func() {
		// Crash after the tmp write, before fsync and rename.
		walCopy, _ = os.ReadFile(filepath.Join(dir, "wal"))
		snapCopy, _ = os.ReadFile(filepath.Join(dir, "snapshot"))
		tmpCopy, _ = os.ReadFile(filepath.Join(dir, "snapshot.tmp"))
	})
	defer failpoint.ClearAll()
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	failpoint.ClearAll()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if snapCopy != nil {
		t.Fatal("snapshot renamed into place before the failpoint")
	}
	if tmpCopy == nil {
		t.Fatal("snapshot.tmp missing at the failpoint")
	}

	cdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(cdir, "wal"), walCopy, 0o644); err != nil {
		t.Fatal(err)
	}
	// The unfsynced tmp would be garbage after a real power failure;
	// model the worst case by leaving only half of it.
	if err := os.WriteFile(filepath.Join(cdir, "snapshot.tmp"), tmpCopy[:len(tmpCopy)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(newTopo(), Options{Dir: cdir, NoSync: true})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	for oid, v := range want {
		got, ok := s2.Get(1, oid)
		if !ok || got.AsMap()["v"].AsInt() != v {
			t.Fatalf("object %d lost or wrong after mid-snapshot crash", oid)
		}
	}
}

// TestCheckpointedSnapshotIsTaggedAndVerifiable loads the snapshot
// file a completed checkpoint left behind and checks its watermark
// matches the WAL base: the recovery contract (base <= watermark) at
// its tightest.
func TestCheckpointedSnapshotIsTaggedAndVerifiable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		oid := s.AllocOID()
		s.Put(lock.TxnID(i+1), rec(oid, "C", map[string]datum.Value{"v": datum.Int(int64(i))}))
		if err := s.CommitTop(lock.TxnID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reclaimed == 0 {
		t.Fatal("checkpoint reclaimed no WAL bytes")
	}
	if res.Kind != "full" || res.Records != 3 {
		t.Fatalf("first checkpoint = %+v, want full with 3 records", res)
	}
	base := s.log.Base()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := decodeSnapshot(buf)
	if err != nil {
		t.Fatalf("snapshot does not verify: %v", err)
	}
	if sn.kind != snapKindFull {
		t.Fatalf("snapshot kind = %d, want full", sn.kind)
	}
	if sn.watermark != base {
		t.Fatalf("snapshot watermark %d != wal base %d", sn.watermark, base)
	}
	if len(sn.recs) != 3 || sn.nextOID != 4 {
		t.Fatalf("snapshot holds %d recs, nextOID %d", len(sn.recs), sn.nextOID)
	}
	st := s.Stats()
	if st.Checkpoints != 1 || st.FullCheckpoints != 1 || st.WALBytesReclaimed != res.Reclaimed {
		t.Fatalf("stats: %d checkpoints (%d full), %d reclaimed",
			st.Checkpoints, st.FullCheckpoints, st.WALBytesReclaimed)
	}
}
