package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func openTemp(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

func TestAppendReplay(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if lsns[0] != 0 {
		t.Fatalf("first LSN = %d, want 0", lsns[0])
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatal("LSNs must be strictly increasing")
		}
	}
	var got []string
	err := l.Replay(func(lsn LSN, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "record-0" || got[9] != "record-9" {
		t.Fatalf("replay = %v", got)
	}
}

func TestReplayEarlyError(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	wantErr := fmt.Errorf("stop")
	n := 0
	err := l.Replay(func(LSN, []byte) error {
		n++
		return wantErr
	})
	if err != wantErr || n != 1 {
		t.Fatalf("err=%v n=%d", err, n)
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	l, path := openTemp(t)
	l.Append([]byte("persist-me"))
	l.Append([]byte("me-too"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	l2.Replay(func(_ LSN, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if len(got) != 2 || got[0] != "persist-me" || got[1] != "me-too" {
		t.Fatalf("after reopen: %v", got)
	}
	// Appends continue from the scanned end.
	l2.Append([]byte("third"))
	var count int
	l2.Replay(func(LSN, []byte) error { count++; return nil })
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := openTemp(t)
	l.Append([]byte("good-one"))
	l.Append([]byte("good-two"))
	l.Close()

	// Simulate a crash mid-append: chop bytes off the last record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	l2.Replay(func(_ LSN, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if len(got) != 1 || got[0] != "good-one" {
		t.Fatalf("after torn tail: %v", got)
	}
	// New appends must not collide with the truncated garbage.
	l2.Append([]byte("recovered"))
	got = got[:0]
	l2.Replay(func(_ LSN, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if len(got) != 2 || got[1] != "recovered" {
		t.Fatalf("after re-append: %v", got)
	}
}

func TestCorruptRecordStopsReplayPrefix(t *testing.T) {
	l, path := openTemp(t)
	l.Append(bytes.Repeat([]byte("x"), 50))
	second, _ := l.Append(bytes.Repeat([]byte("y"), 50))
	l.Append(bytes.Repeat([]byte("z"), 50))
	l.Close()

	// Flip a byte inside the second record's payload. The file offset
	// of LSN x is x - base + headerSize, and the base here is 0.
	data, _ := os.ReadFile(path)
	data[int(second)+headerSize+8+10] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var count int
	l2.Replay(func(LSN, []byte) error { count++; return nil })
	if count != 1 {
		t.Fatalf("replayed %d records, want 1 (valid prefix only)", count)
	}
}

func TestTruncateBeforeDropsPrefixKeepsSuffix(t *testing.T) {
	l, path := openTemp(t)
	var lsns []LSN
	for i := 0; i < 5; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	endBefore := l.End()
	reclaimed, err := l.TruncateBefore(lsns[2])
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != uint64(lsns[2]) {
		t.Fatalf("reclaimed = %d, want %d", reclaimed, lsns[2])
	}
	if l.Base() != lsns[2] {
		t.Fatalf("Base = %d, want %d", l.Base(), lsns[2])
	}
	if l.End() != endBefore {
		t.Fatalf("End changed: %d -> %d", endBefore, l.End())
	}
	// Surviving records keep their logical LSNs.
	var gotLSN []LSN
	var got []string
	l.Replay(func(lsn LSN, p []byte) error {
		gotLSN = append(gotLSN, lsn)
		got = append(got, string(p))
		return nil
	})
	if len(got) != 3 || got[0] != "record-2" || got[2] != "record-4" {
		t.Fatalf("replay after truncate: %v", got)
	}
	if gotLSN[0] != lsns[2] || gotLSN[2] != lsns[4] {
		t.Fatalf("LSNs after truncate: %v, want %v", gotLSN, lsns[2:])
	}
	// Appends continue past the old end.
	post, err := l.Append([]byte("record-5"))
	if err != nil {
		t.Fatal(err)
	}
	if post != endBefore {
		t.Fatalf("post-truncate LSN = %d, want %d", post, endBefore)
	}
	l.Close()

	// Base and suffix survive reopen.
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != lsns[2] {
		t.Fatalf("Base after reopen = %d, want %d", l2.Base(), lsns[2])
	}
	var count int
	l2.Replay(func(LSN, []byte) error { count++; return nil })
	if count != 4 {
		t.Fatalf("replayed %d records after reopen, want 4", count)
	}
}

func TestTruncateBeforeNoop(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	lsn, _ := l.Append([]byte("a"))
	if _, err := l.TruncateBefore(lsn); err != nil {
		t.Fatal(err)
	}
	// lsn == 0 == base: nothing to drop.
	if l.Base() != 0 {
		t.Fatalf("Base = %d after no-op truncate", l.Base())
	}
	reclaimed, err := l.TruncateBefore(l.End() + 100)
	if err != nil {
		t.Fatal(err)
	}
	// Clamped to End: the whole log is reclaimed, no more.
	if reclaimed != uint64(l.End()) {
		t.Fatalf("reclaimed = %d, want %d", reclaimed, l.End())
	}
	var count int
	l.Replay(func(LSN, []byte) error { count++; return nil })
	if count != 0 {
		t.Fatal("records survived full truncate")
	}
}

func TestTruncateBeforeConcurrentWithDurableAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, each = 4, 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	truncDone := make(chan struct{})
	go func() { // checkpointer: repeatedly drop the durable prefix
		defer close(truncDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.TruncateBefore(l.End()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := []byte(fmt.Sprintf("w%d-%d", w, i))
				lsn, err := l.Append(payload)
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.SyncTo(lsn + LSN(8+len(payload))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-truncDone
	// Every record at or above the final base must replay cleanly.
	base := l.Base()
	var prev LSN
	if err := l.Replay(func(lsn LSN, p []byte) error {
		if lsn < base || (prev != 0 && lsn <= prev) {
			t.Errorf("bad replay LSN %d (base %d, prev %d)", lsn, base, prev)
		}
		prev = lsn
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestClosedErrors(t *testing.T) {
	l, _ := openTemp(t)
	l.Close()
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after close: %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close: %v", err)
	}
	if _, err := l.TruncateBefore(1); err != ErrClosed {
		t.Fatalf("TruncateBefore after close: %v", err)
	}
	if err := l.Replay(func(LSN, []byte) error { return nil }); err != ErrClosed {
		t.Fatalf("Replay after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	var wg sync.WaitGroup
	const writers, each = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var count int
	seen := map[string]bool{}
	l.Replay(func(_ LSN, p []byte) error {
		count++
		seen[string(p)] = true
		return nil
	})
	if count != writers*each || len(seen) != writers*each {
		t.Fatalf("replayed %d records (%d distinct), want %d", count, len(seen), writers*each)
	}
}

func TestEmptyPayload(t *testing.T) {
	l, path := openTemp(t)
	l.Append(nil)
	l.Append([]byte("after-empty"))
	l.Close()
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []int
	l2.Replay(func(_ LSN, p []byte) error {
		got = append(got, len(p))
		return nil
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 11 {
		t.Fatalf("got %v", got)
	}
}

func TestSyncMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.wal")
	l, err := Open(path, Options{}) // sync enabled
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSyncConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := []byte(fmt.Sprintf("w%d-%d", w, i))
				lsn, err := l.Append(payload)
				if err != nil {
					t.Error(err)
					return
				}
				// A nil SyncTo return promises this record is durable.
				if err := l.SyncTo(lsn + LSN(8+len(payload))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var count int
	if err := l.Replay(func(LSN, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != writers*each {
		t.Fatalf("replayed %d records, want %d", count, writers*each)
	}
	reqs, fsyncs := l.SyncRequests(), l.Fsyncs()
	if reqs != writers*each {
		t.Fatalf("SyncRequests = %d, want %d", reqs, writers*each)
	}
	if fsyncs == 0 || fsyncs > reqs {
		t.Fatalf("Fsyncs = %d, want in [1, %d]", fsyncs, reqs)
	}
}

func TestSyncToAlreadyDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "durable.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append([]byte("rec"))
	if err != nil {
		t.Fatal(err)
	}
	target := lsn + LSN(8+3)
	if err := l.SyncTo(target); err != nil {
		t.Fatal(err)
	}
	before := l.Fsyncs()
	// The prefix is already durable: no new fsync is needed.
	if err := l.SyncTo(target); err != nil {
		t.Fatal(err)
	}
	if got := l.Fsyncs(); got != before {
		t.Fatalf("redundant SyncTo issued an fsync (%d -> %d)", before, got)
	}
}

func TestTruncateBeforeKeepsDurabilityPromise(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc-durable.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append([]byte("before-checkpoint"))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.TruncateBefore(l.End()); err != nil {
		t.Fatal(err)
	}
	before := l.Fsyncs()
	lsn, err := l.Append([]byte("after-checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	// The record landed after the truncate rewrite was fsynced, so it
	// still needs its own flush: a stale durable prefix must not let
	// SyncTo acknowledge it for free.
	if err := l.SyncTo(lsn + LSN(8+16)); err != nil {
		t.Fatal(err)
	}
	if got := l.Fsyncs(); got == before {
		t.Fatal("SyncTo after TruncateBefore did not fsync (stale durable prefix)")
	}
}

func BenchmarkAppendNoSync(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("p"), 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelAppendSync measures the append+durability path
// under concurrent committers (sweep with -cpu 1,2,4,8). With group
// commit, the fsync sub-benchmark's ns/op drops as concurrency rises
// because parked committers share one flush.
func BenchmarkParallelAppendSync(b *testing.B) {
	run := func(b *testing.B, noSync bool) {
		path := filepath.Join(b.TempDir(), "bench.wal")
		l, err := Open(path, Options{NoSync: noSync})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		payload := bytes.Repeat([]byte("p"), 128)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := l.Append(payload); err != nil {
					b.Error(err)
					return
				}
				if err := l.Sync(); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		if reqs := l.SyncRequests(); reqs > 0 {
			b.ReportMetric(float64(l.Fsyncs())/float64(reqs), "fsyncs/req")
		}
	}
	b.Run("nosync", func(b *testing.B) { run(b, true) })
	b.Run("fsync", func(b *testing.B) { run(b, false) })
}

func TestQuickRandomPayloadsSurviveReopen(t *testing.T) {
	// Property: any batch of byte payloads appended and closed is
	// replayed identically after reopen.
	path := filepath.Join(t.TempDir(), "quick.wal")
	f := func(payloads [][]byte) bool {
		os.Remove(path)
		l, err := Open(path, Options{NoSync: true})
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if _, err := l.Append(p); err != nil {
				return false
			}
		}
		l.Close()
		l2, err := Open(path, Options{NoSync: true})
		if err != nil {
			return false
		}
		defer l2.Close()
		i := 0
		ok := true
		l2.Replay(func(_ LSN, got []byte) error {
			if i >= len(payloads) || !bytes.Equal(got, payloads[i]) {
				ok = false
			}
			i++
			return nil
		})
		return ok && i == len(payloads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
