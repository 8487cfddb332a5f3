package storage

// Directed tests for the incremental checkpointer: the O(d) delta
// claim, compaction cadence, the empty-delta no-op, the WAL-growth
// trigger, and the offline snapshot inspector.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/failpoint"
	"repro/internal/lock"
	"repro/internal/wal"
)

// commitOne writes a single record in its own top-level transaction.
func commitOne(t *testing.T, s *Store, tx lock.TxnID, r Record) {
	t.Helper()
	s.Put(tx, r)
	if err := s.CommitTop(tx); err != nil {
		t.Fatal(err)
	}
}

// TestFullCheckpointLetsCommitsThrough pauses a full checkpoint inside
// its walk of the heap and requires a commit to return meanwhile: the
// capture may hold the writer mutex only to swap the dirty set. The
// commit made mid-capture must then survive the next delta and a
// reopen, whether or not the paused walk saw it.
func TestFullCheckpointLetsCommitsThrough(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var oids []datum.OID
	for i := 0; i < 10; i++ {
		oids = append(oids, s.AllocOID())
		commitOne(t, s, lock.TxnID(i+1), rec(oids[i], "C", map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	paused, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	failpoint.Set("storage.midFullCapture", func() {
		once.Do(func() {
			close(paused)
			<-resume
		})
	})
	defer failpoint.Clear("storage.midFullCapture")
	ckpt := make(chan error, 1)
	go func() {
		res, err := s.Compact()
		if err == nil && res.Kind != "full" {
			err = fmt.Errorf("checkpoint kind %q, want full", res.Kind)
		}
		ckpt <- err
	}()
	select {
	case <-paused:
	case <-time.After(5 * time.Second):
		t.Fatal("full checkpoint never reached its heap walk")
	}
	fresh := s.AllocOID()
	committed := make(chan error, 1)
	go func() {
		s.Put(100, rec(oids[0], "C", map[string]datum.Value{"v": datum.Int(-1)}))
		s.Put(100, rec(fresh, "C", map[string]datum.Value{"v": datum.Int(-2)}))
		committed <- s.CommitTop(100)
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(resume)
		t.Fatal("CommitTop blocked behind a paused full checkpoint")
	}
	close(resume)
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for oid, want := range map[datum.OID]int64{oids[0]: -1, fresh: -2, oids[9]: 9} {
		got, ok := s.Get(0, oid)
		if !ok || got.AsMap()["v"].AsInt() != want {
			t.Fatalf("oid %v after reopen: %v (found %v), want v=%d", oid, got.AsMap(), ok, want)
		}
	}
}

// TestDeltaCheckpointWritesOnlyDirty is the acceptance criterion: a
// store holding n objects of which d were dirtied since the last
// checkpoint must write a delta of exactly d records — O(d), not
// O(n) — while still reclaiming WAL bytes, and a deletion must travel
// as a tombstone so recovery cannot resurrect the object from an
// older chain element.
func TestDeltaCheckpointWritesOnlyDirty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	oids := make([]datum.OID, n)
	for i := 0; i < n; i++ {
		oids[i] = s.AllocOID()
		commitOne(t, s, lock.TxnID(i+1), rec(oids[i], "C",
			map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	res, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "full" || res.Records != n {
		t.Fatalf("first checkpoint = %+v, want full with %d records", res, n)
	}

	// Dirty 3 of the 100, delete a 4th.
	for i, oid := range oids[:3] {
		commitOne(t, s, lock.TxnID(1000+i), rec(oid, "C",
			map[string]datum.Value{"v": datum.Int(int64(-1 - i))}))
	}
	s.Put(2000, Record{OID: oids[50], Class: "C", Deleted: true})
	if err := s.CommitTop(2000); err != nil {
		t.Fatal(err)
	}
	res, err = s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "delta" || res.Records != 4 {
		t.Fatalf("delta checkpoint = %+v, want delta with 4 records", res)
	}
	if res.Reclaimed == 0 {
		t.Fatal("delta checkpoint reclaimed no WAL bytes")
	}
	st := s.Stats()
	if st.FullCheckpoints != 1 || st.DeltaCheckpoints != 1 {
		t.Fatalf("stats: %d full, %d delta", st.FullCheckpoints, st.DeltaCheckpoints)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The delta file itself must hold exactly the 4 records.
	sn, _, err := readSnapshotFile(filepath.Join(dir, deltaName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if sn.kind != snapKindDelta || len(sn.recs) != 4 {
		t.Fatalf("delta file: kind %d, %d recs", sn.kind, len(sn.recs))
	}
	tombs := 0
	for _, r := range sn.recs {
		if r.Deleted {
			tombs++
			if r.OID != oids[50] {
				t.Fatalf("tombstone for %v, want %v", r.OID, oids[50])
			}
		}
	}
	if tombs != 1 {
		t.Fatalf("delta holds %d tombstones, want 1", tombs)
	}

	// Recovery folds the delta over the full snapshot.
	s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, oid := range oids {
		got, ok := s2.Get(0, oid)
		switch {
		case i < 3:
			if !ok || got.AsMap()["v"].AsInt() != int64(-1-i) {
				t.Fatalf("oid %v: lost delta update", oid)
			}
		case i == 50:
			if ok {
				t.Fatalf("oid %v: resurrected after tombstoned delta", oid)
			}
		default:
			if !ok || got.AsMap()["v"].AsInt() != int64(i) {
				t.Fatalf("oid %v: lost base value", oid)
			}
		}
	}
}

// TestCompactDropsChain checks a forced compaction over a live chain:
// full, delta, delta, then Compact writes a full snapshot while the
// deltas are still far below the size threshold, and removes the
// now-subsumed delta files.
func TestCompactDropsChain(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	padBase(t, 100, s)
	wantKinds := []string{"full", "delta", "delta", "full"}
	for i, want := range wantKinds {
		oid := s.AllocOID()
		commitOne(t, s, lock.TxnID(i+1), rec(oid, "C",
			map[string]datum.Value{"v": datum.Int(int64(i))}))
		ckpt := s.Checkpoint
		if i == len(wantKinds)-1 {
			ckpt = s.Compact
		}
		res, err := ckpt()
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != want {
			t.Fatalf("checkpoint %d kind = %q, want %q", i, res.Kind, want)
		}
	}
	if names, _, err := deltaFiles(dir); err != nil || len(names) != 0 {
		t.Fatalf("delta files after compaction: %v (err %v)", names, err)
	}
	st := s.Stats()
	if st.FullCheckpoints != 2 || st.DeltaCheckpoints != 2 {
		t.Fatalf("stats: %d full, %d delta", st.FullCheckpoints, st.DeltaCheckpoints)
	}
}

// TestAdaptiveCompaction checks the byte threshold: small deltas
// extend the chain indefinitely, but once the cumulative delta bytes
// reach half the full snapshot's size the next checkpoint compacts.
func TestAdaptiveCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A wide base so one-record deltas are far below the threshold.
	const n = 200
	oids := make([]datum.OID, n)
	for i := 0; i < n; i++ {
		oids[i] = s.AllocOID()
		commitOne(t, s, lock.TxnID(i+1), rec(oids[i], "C",
			map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	if res, err := s.Checkpoint(); err != nil || res.Kind != "full" {
		t.Fatalf("first checkpoint = %+v (err %v), want full", res, err)
	}
	// 10 one-record deltas all stay deltas.
	for i := 0; i < 10; i++ {
		commitOne(t, s, lock.TxnID(1000+i), rec(oids[i], "C",
			map[string]datum.Value{"v": datum.Int(int64(-1 - i))}))
		res, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != "delta" {
			t.Fatalf("small checkpoint %d kind = %q, want delta", i, res.Kind)
		}
	}
	// Dirty most of the base: this delta is large, pushing the
	// cumulative delta bytes past half the snapshot's size...
	for i := 0; i < n*3/4; i++ {
		commitOne(t, s, lock.TxnID(2000+i), rec(oids[i], "C",
			map[string]datum.Value{"v": datum.Int(int64(10000 + i))}))
	}
	res, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "delta" {
		t.Fatalf("large checkpoint kind = %q, want delta (threshold checks prior bytes)", res.Kind)
	}
	// ...so the next checkpoint, however small, compacts.
	commitOne(t, s, 5000, rec(oids[0], "C", map[string]datum.Value{"v": datum.Int(-999)}))
	res, err = s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "full" {
		t.Fatalf("post-threshold checkpoint kind = %q, want full", res.Kind)
	}
	if names, _, err := deltaFiles(dir); err != nil || len(names) != 0 {
		t.Fatalf("delta files after adaptive compaction: %v (err %v)", names, err)
	}
}

// TestCheckpointOnOpen: reopening a directory whose surviving WAL
// suffix exceeds CheckpointAfterBytes must checkpoint during Open —
// folding the backlog into the chain instead of carrying it to the
// next crash — without losing any replayed record.
func TestCheckpointOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	oids := make([]datum.OID, n)
	for i := 0; i < n; i++ {
		oids[i] = s.AllocOID()
		commitOne(t, s, lock.TxnID(i+1), rec(oids[i], "C",
			map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The whole history is still in the WAL (never checkpointed), so
	// any tiny threshold is exceeded at open.
	s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true, CheckpointAfterBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Checkpoints == 0 || st.FullCheckpoints == 0 {
		t.Fatalf("no checkpoint ran at open: %+v", st)
	}
	if st.WALBytesReclaimed == 0 {
		t.Fatal("checkpoint-on-open reclaimed no WAL bytes")
	}
	if _, err := os.Stat(filepath.Join(dir, fullSnapshotName)); err != nil {
		t.Fatalf("no snapshot file after checkpoint-on-open: %v", err)
	}
	for i, oid := range oids {
		got, ok := s2.Get(0, oid)
		if !ok || got.AsMap()["v"].AsInt() != int64(i) {
			t.Fatalf("oid %v lost across checkpoint-on-open", oid)
		}
	}
}

// TestIdleDeltaCheckpointIsNoop: with nothing committed since the
// last checkpoint and the watermark unmoved, a checkpoint must not
// extend the chain.
func TestIdleDeltaCheckpointIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commitOne(t, s, 1, rec(s.AllocOID(), "C", map[string]datum.Value{"v": datum.Int(1)}))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "delta" || res.Records != 0 || res.Reclaimed != 0 {
		t.Fatalf("idle checkpoint = %+v, want empty delta", res)
	}
	if names, _, err := deltaFiles(dir); err != nil || len(names) != 0 {
		t.Fatalf("idle checkpoint wrote chain files: %v (err %v)", names, err)
	}
}

// TestSizeTriggeredCheckpoint: with CheckpointAfterBytes set, commits
// alone must eventually run a background checkpoint — no timer, no
// manual call — and wal_bytes_reclaimed must advance.
func TestSizeTriggeredCheckpoint(t *testing.T) {
	var mu sync.Mutex
	var asyncErrs []error
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true,
		CheckpointAfterBytes: 2048,
		OnAsyncError: func(err error) {
			mu.Lock()
			asyncErrs = append(asyncErrs, err)
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 1; s.Stats().Checkpoints == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no size-triggered checkpoint after 10s of commits")
		}
		oid := s.AllocOID()
		commitOne(t, s, lock.TxnID(i), rec(oid, "C",
			map[string]datum.Value{"pad": datum.Str("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")}))
	}
	if err := s.Close(); err != nil { // waits for the background checkpoint
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, err := range asyncErrs {
		t.Errorf("async checkpoint error: %v", err)
	}
	if st := s.Stats(); st.WALBytesReclaimed == 0 {
		t.Error("size-triggered checkpoint reclaimed no WAL bytes")
	}
}

// TestCheckpointPersistsClassCards pins the v3 snapshot-header
// statistics: a checkpoint writes the live per-class extent
// cardinalities, deltas carry the GLOBAL cards (not just the dirty
// classes), the offline inspector surfaces them, and a reopened store
// seeds its planner statistics from the newest chain element.
func TestCheckpointPersistsClassCards(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	txn := 1
	put := func(class string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			commitOne(t, s, lock.TxnID(txn), rec(s.AllocOID(), class,
				map[string]datum.Value{"v": datum.Int(int64(i))}))
			txn++
		}
	}
	put("C", 7)
	put("D", 3)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Dirty only C: the delta's cards must still cover D.
	put("C", 2)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := InspectSnapshotFile(filepath.Join(dir, fullSnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if full.ClassCards["C"] != 7 || full.ClassCards["D"] != 3 {
		t.Fatalf("full cards = %v, want C:7 D:3", full.ClassCards)
	}
	delta, err := InspectSnapshotFile(filepath.Join(dir, deltaName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if delta.ClassCards["C"] != 9 || delta.ClassCards["D"] != 3 {
		t.Fatalf("delta cards = %v, want global C:9 D:3", delta.ClassCards)
	}

	// Reopen: the newest element's cards seed the planner statistics,
	// and the live extent counters agree with them after install.
	s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	seeded := s2.SeededStats()
	if seeded["C"] != 9 || seeded["D"] != 3 {
		t.Fatalf("seeded stats = %v, want C:9 D:3", seeded)
	}
	if got := s2.ExtentEstimate("C"); got != 9 {
		t.Fatalf("ExtentEstimate(C) = %d, want 9", got)
	}
	// The seed answers for classes with no live extent entries yet —
	// the cold-start fallback ExtentEstimate documents.
	s2.seedStats(map[string]uint64{"Ghost": 41})
	if got := s2.ExtentEstimate("Ghost"); got != 41 {
		t.Fatalf("ExtentEstimate(Ghost) = %d, want seeded 41", got)
	}
}

// TestInspectSnapshot drives the offline inspector over a real chain:
// the full snapshot, a delta (whose parent link must match the full
// file's trailing CRC), a deliberately corrupted copy, and a file in
// the retired "hipacsp2" format, which both readers refuse.
func TestInspectSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	commitOne(t, s, 1, rec(s.AllocOID(), "C", map[string]datum.Value{"v": datum.Int(1)}))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitOne(t, s, 2, rec(s.AllocOID(), "C", map[string]datum.Value{"v": datum.Int(2)}))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fullPath := filepath.Join(dir, fullSnapshotName)
	full, err := InspectSnapshotFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	if full.Kind != "full" || !full.CRCOK || full.Records != 1 {
		t.Fatalf("full inspect = %+v", full)
	}
	delta, err := InspectSnapshotFile(filepath.Join(dir, deltaName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if delta.Kind != "delta" || !delta.CRCOK || delta.Records != 1 {
		t.Fatalf("delta inspect = %+v", delta)
	}
	if delta.ParentWatermark != full.Watermark || delta.ParentCRC != full.CRC {
		t.Fatalf("delta parent link (%d, %08x) does not match full (%d, %08x)",
			delta.ParentWatermark, delta.ParentCRC, full.Watermark, full.CRC)
	}

	// Flip a body byte: the inspector still reads the header but
	// reports the CRC mismatch instead of failing.
	buf, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-5] ^= 0xff
	bad := filepath.Join(dir, "corrupt")
	if err := os.WriteFile(bad, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := InspectSnapshotFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if info.CRCOK {
		t.Fatal("inspector missed a corrupted body")
	}

	if err := os.WriteFile(fullPath, legacySnapshot("hipacsp2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := InspectSnapshotFile(fullPath); err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
		t.Fatalf("inspecting a hipacsp2 file: %v, want bad snapshot magic", err)
	}
	s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err == nil {
		s2.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
		t.Fatalf("opening over a hipacsp2 snapshot: %v, want bad snapshot magic", err)
	}
}

// TestOpenRebasesLogBehindChain: a WAL that ends below the chain
// watermark — missing, or an empty log at base 0 — must be replaced at
// Open by an empty log based at the watermark. Otherwise the next
// commit is logged below the watermark, and the following replay skips
// it as already covered by the chain: an acknowledged commit lost.
func TestOpenRebasesLogBehindChain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"removed", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty-at-base-0", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			l, err := wal.Open(path, wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if l.Base() != 0 || l.End() != 0 {
				t.Fatalf("fresh log at [%d, %d), want [0, 0)", l.Base(), l.End())
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			const n = 20
			oids := make([]datum.OID, n)
			for i := range oids {
				oids[i] = s.AllocOID()
				commitOne(t, s, lock.TxnID(i+1), rec(oids[i], "C",
					map[string]datum.Value{"v": datum.Int(int64(i))}))
			}
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			watermark := s.WAL().End()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, filepath.Join(dir, "wal"))

			s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if base, end := s2.WAL().Base(), s2.WAL().End(); base != watermark || end != watermark {
				t.Fatalf("reopened log at [%d, %d), want empty at watermark %d", base, end, watermark)
			}
			last := s2.AllocOID()
			commitOne(t, s2, n+1, rec(last, "C", map[string]datum.Value{"v": datum.Int(n)}))
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}

			s3, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			for i, oid := range append(oids, last) {
				if got, ok := s3.Get(0, oid); !ok || got.AsMap()["v"].AsInt() != int64(i) {
					t.Fatalf("acknowledged commit of oid %v lost after reopen", oid)
				}
			}
			if base := s3.WAL().Base(); base != watermark {
				t.Fatalf("log base %d after reopen, want chain watermark %d", base, watermark)
			}
		})
	}
}
