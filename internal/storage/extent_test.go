package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datum"
	"repro/internal/lock"
)

// dumpExtent returns the OIDs filed in class's extent in slot order —
// what a lock-free reader walking the extent now would visit, before
// resolve filters it.
func (s *Store) dumpExtent(class string) []datum.OID {
	var oids []datum.OID
	for c := s.cursor(class, 0); !c.done(); {
		oids = append(oids, c.pop().oid)
	}
	return oids
}

func strictlyAscending(oids []datum.OID) bool {
	for i := 1; i < len(oids); i++ {
		if oids[i] <= oids[i-1] {
			return false
		}
	}
	return true
}

// bruteForce is the scan the extent replaces: every entry of the heap,
// resolved at lsn, sorted afterwards.
func bruteForce(s *Store, class string, lsn uint64) []datum.OID {
	var out []datum.OID
	s.objects.Range(func(k, v any) bool {
		if rec, ok := s.resolve(v.(*mvEntry), committedOwner, lsn); ok && rec.Class == class {
			out = append(out, k.(datum.OID))
		}
		return true
	})
	slices.Sort(out)
	return out
}

func scanOIDs(s *Store, class string, lsn uint64) []datum.OID {
	var out []datum.OID
	s.ScanClassAt(committedOwner, class, lsn, func(r Object) bool {
		out = append(out, r.OID)
		return true
	})
	return out
}

// rangeOIDs cuts class into at most parts ranges and concatenates their
// scans at lsn, the way the parallel executor's workers cover a class.
func rangeOIDs(s *Store, class string, lsn uint64, parts int) []datum.OID {
	bounds := slices.Concat([]datum.OID{0}, s.ExtentCuts(class, parts), []datum.OID{0})
	var out []datum.OID
	for k := 0; k+1 < len(bounds); k++ {
		s.ScanClassRangeAt(committedOwner, class, bounds[k], bounds[k+1], lsn, func(r Object) bool {
			out = append(out, r.OID)
			return true
		})
	}
	return out
}

// TestExtentChunking drives one extent through every writer path —
// growth by doubling, a full tail starting the next chunk, out-of-order
// inserts that split a full chunk, re-pointing a slot, removals that
// empty a chunk — against a sorted-slice model.
func TestExtentChunking(t *testing.T) {
	var x extent
	var model []datum.OID
	check := func(when string) {
		t.Helper()
		var got []datum.OID
		for _, c := range x.chunks() {
			if len(c.live()) == 0 || len(c.live()) > extentChunkMax {
				t.Fatalf("%s: chunk of %d slots", when, len(c.live()))
			}
			for _, sl := range c.live() {
				got = append(got, sl.oid)
			}
		}
		if !slices.Equal(got, model) {
			t.Fatalf("%s: extent holds %d slots, model %d (ascending=%v)", when, len(got), len(model), strictlyAscending(got))
		}
	}
	e1, e2 := &mvEntry{}, &mvEntry{}
	// Even OIDs appended in order: three full chunks and a tail.
	for oid := datum.OID(2); oid <= 2*(3*extentChunkMax+40); oid += 2 {
		if !x.add(oid, e1) {
			t.Fatalf("append %d: not new", oid)
		}
		model = append(model, oid)
	}
	check("after appends")
	if n := len(x.chunks()); n != 4 {
		t.Fatalf("appends made %d chunks, want 4", n)
	}
	if x.add(model[7], e1) {
		t.Fatal("re-adding a present slot grew the extent")
	}
	// Odd OIDs in random order: every chunk splits.
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(len(model)) {
		oid := datum.OID(2*i + 1)
		if !x.add(oid, e1) {
			t.Fatalf("insert %d: not new", oid)
		}
	}
	model = model[:0]
	for oid := datum.OID(1); oid <= 2*(3*extentChunkMax+40); oid++ {
		model = append(model, oid)
	}
	check("after out-of-order inserts")
	// Re-pointing keeps the slot and swaps the entry.
	if x.add(100, e2) {
		t.Fatal("re-pointing a slot grew the extent")
	}
	if ci, i, ok := find(x.chunks(), 100); !ok || x.chunks()[ci].live()[i].e != e2 {
		t.Fatal("slot 100 does not hold its new entry")
	}
	check("after re-point")
	// Remove a stretch wide enough to drop whole chunks, then the rest.
	for _, i := range rng.Perm(len(model)) {
		if !x.remove(model[i]) {
			t.Fatalf("remove %d: absent", model[i])
		}
		if x.remove(model[i]) {
			t.Fatalf("remove %d twice", model[i])
		}
	}
	model = nil
	check("after removing everything")
	if !x.add(5, e1) {
		t.Fatal("an emptied extent refused a slot")
	}
}

// TestScanStopsAtFirstRow pins the early-stop fix: a caller that wants
// one row (DropClass's in-use check) resolves one slot, not the whole
// extent.
func TestScanStopsAtFirstRow(t *testing.T) {
	s, _ := ephemeral(t)
	for i := 0; i < 10_000; i++ {
		s.Put(1, rec(s.AllocOID(), "Big", map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	if err := s.CommitTop(1); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().RowsScanned
	calls := 0
	s.ScanClass(committedOwner, "Big", func(Object) bool {
		calls++
		return false
	})
	resolved := s.Stats().RowsScanned - before
	if calls != 1 || resolved != 1 {
		t.Fatalf("one-row scan of a 10 000-row class: %d callbacks, %d rows resolved", calls, resolved)
	}
	s.ScanClass(committedOwner, "Big", func(Object) bool { return true })
	if got := s.Stats().RowsScanned - before - resolved; got != 10_000 {
		t.Fatalf("full scan resolved %d rows, want 10000", got)
	}
}

// TestScanAllocations holds the read path to its budget: a Get of a
// committed object allocates nothing, a 10 000-row scan allocates per
// scan (the timer, the snapshot pin), not per row.
func TestScanAllocations(t *testing.T) {
	s, _ := ephemeral(t)
	var mid datum.OID
	for i := 0; i < 10_000; i++ {
		oid := s.AllocOID()
		if i == 5_000 {
			mid = oid
		}
		s.Put(1, rec(oid, "Big", map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	if err := s.CommitTop(1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { s.Get(committedOwner, mid) }); n != 0 {
		t.Errorf("Get of a committed object: %v allocations, want 0", n)
	}
	rows := 0
	visit := func(Object) bool { rows++; return true }
	lsn := s.PublishedLSN()
	const budget = 16
	if n := testing.AllocsPerRun(10, func() { s.ScanClassAt(committedOwner, "Big", lsn, visit) }); n > budget {
		t.Errorf("ScanClassAt over 10 000 rows: %v allocations, budget %v", n, budget)
	}
	his := append(s.ExtentCuts("Big", 16), 0)
	if n := testing.AllocsPerRun(10, func() {
		lo := datum.OID(0)
		for _, hi := range his {
			s.ScanClassRangeAt(committedOwner, "Big", lo, hi, lsn, visit)
			lo = hi
		}
	}); n > budget {
		t.Errorf("range scans over 10 000 rows: %v allocations, budget %v", n, budget)
	}
	if rows == 0 {
		t.Fatal("scans visited nothing")
	}
}

// TestExtentProperty races one mutator — creates whose Puts land out of
// OID order across interleaved transactions, aborts, deletes, whole
// classes emptied, VersionGC, RegisterIndex — against scanners at
// pinned snapshots. At every snapshot the extent must be strictly
// ascending, the scan must equal the brute-force walk of the objects
// map at that LSN, and the range scans of a cut into 1, 2, 3 or 16
// parts must concatenate to exactly that scan; at the end
// ExtentEstimate must equal the slot count. Run under -race.
func TestExtentProperty(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	s, _ := ephemeral(t)
	classes := []string{"P", "Q", "R"}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
		stop.Store(true)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				class := classes[i%len(classes)]
				h := s.AcquireSnapshot()
				if slots := s.dumpExtent(class); !strictlyAscending(slots) {
					fail("class %s: slots not strictly ascending: %v", class, slots)
				}
				got, want := scanOIDs(s, class, h.LSN()), bruteForce(s, class, h.LSN())
				if !slices.Equal(got, want) {
					fail("class %s at lsn %d: scan saw %d rows, brute force %d\nscan:  %v\nbrute: %v",
						class, h.LSN(), len(got), len(want), got, want)
				}
				for _, parts := range []int{1, 2, 3, 16} {
					if ranged := rangeOIDs(s, class, h.LSN(), parts); !slices.Equal(ranged, got) {
						fail("class %s at lsn %d: %d-part range scans saw %d rows, scan %d\nranges: %v\nscan:   %v",
							class, h.LSN(), parts, len(ranged), len(got), ranged, got)
					}
				}
				h.Release()
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(7))
	live := map[string][]datum.OID{}
	nextTx := lock.TxnID(100)
	put := func(tx lock.TxnID, oid datum.OID, class string) {
		s.Put(tx, rec(oid, class, map[string]datum.Value{"v": datum.Int(int64(oid) % 17)}))
	}
	for round := 0; round < rounds && !stop.Load(); round++ {
		class := classes[rng.Intn(len(classes))]
		switch op := rng.Intn(10); {
		case op < 4:
			// Three transactions share a block of fresh OIDs, Put them
			// in shuffled order and finish in shuffled order, one of
			// them by aborting.
			txs := []lock.TxnID{nextTx, nextTx + 1, nextTx + 2}
			nextTx += 3
			block := make([]datum.OID, 6+rng.Intn(40))
			for i := range block {
				block[i] = s.AllocOID()
			}
			owner := map[datum.OID]lock.TxnID{}
			for _, i := range rng.Perm(len(block)) {
				owner[block[i]] = txs[rng.Intn(len(txs))]
				put(owner[block[i]], block[i], class)
			}
			aborted := txs[rng.Intn(len(txs))]
			for _, i := range rng.Perm(len(txs)) {
				if txs[i] == aborted {
					s.AbortTxn(txs[i])
				} else if err := s.CommitTop(txs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, oid := range block {
				if owner[oid] != aborted {
					live[class] = append(live[class], oid)
				}
			}
		case op < 6 && len(live[class]) > 0:
			// Delete a few (tombstones; GC removes the slots later).
			tx := nextTx
			nextTx++
			for n := 1 + rng.Intn(4); n > 0 && len(live[class]) > 0; n-- {
				i := rng.Intn(len(live[class]))
				s.Put(tx, Record{OID: live[class][i], Class: class, Deleted: true})
				live[class] = slices.Delete(live[class], i, i+1)
			}
			if err := s.CommitTop(tx); err != nil {
				t.Fatal(err)
			}
		case op < 7 && len(live[class]) > 0:
			// Modify: a second version on the chain, same slot.
			tx := nextTx
			nextTx++
			put(tx, live[class][rng.Intn(len(live[class]))], class)
			if err := s.CommitTop(tx); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			s.VersionGC()
		case op < 9:
			s.RegisterIndex(class, "v")
		default:
			// Drop the class's contents: delete every object, collect.
			tx := nextTx
			nextTx++
			for _, oid := range live[class] {
				s.Put(tx, Record{OID: oid, Class: class, Deleted: true})
			}
			live[class] = nil
			if err := s.CommitTop(tx); err != nil {
				t.Fatal(err)
			}
			s.VersionGC()
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	s.bgWG.Wait() // a background sweep may still be removing slots
	for _, class := range classes {
		slots := len(s.dumpExtent(class))
		if got := s.ExtentEstimate(class); got != slots {
			t.Errorf("class %s: ExtentEstimate %d, extent holds %d slots", class, got, slots)
		}
		want := slices.Clone(live[class])
		slices.Sort(want)
		if got := scanOIDs(s, class, s.PublishedLSN()); !slices.Equal(got, want) {
			t.Errorf("class %s: final scan %v, model %v", class, got, want)
		}
	}
	s.VersionGC()
	for _, class := range classes {
		want := len(live[class])
		if got := s.ExtentEstimate(class); got != want {
			t.Errorf("class %s after GC: ExtentEstimate %d, live objects %d", class, got, want)
		}
	}
}
