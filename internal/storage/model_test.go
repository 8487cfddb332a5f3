package storage

// Model-based randomized test: drive the versioned heap with a random
// single-threaded schedule of nested transactions (begin-child, put,
// delete, commit, abort) and compare every read against a simple
// layered-map model.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datum"
	"repro/internal/lock"
)

// modelTxn mirrors one transaction's uncommitted view in the model.
type modelTxn struct {
	id     lock.TxnID
	parent *modelTxn
	writes map[datum.OID]*int64 // nil pointer = tombstone
}

type model struct {
	committed map[datum.OID]int64
}

// lookup resolves visibility exactly as the spec says: own writes,
// then ancestors', then committed.
func (m *model) lookup(t *modelTxn, oid datum.OID) (int64, bool) {
	for cur := t; cur != nil; cur = cur.parent {
		if v, ok := cur.writes[oid]; ok {
			if v == nil {
				return 0, false
			}
			return *v, true
		}
	}
	v, ok := m.committed[oid]
	return v, ok
}

func (m *model) commit(t *modelTxn) {
	if t.parent == nil {
		for oid, v := range t.writes {
			if v == nil {
				delete(m.committed, oid)
			} else {
				m.committed[oid] = *v
			}
		}
		return
	}
	for oid, v := range t.writes {
		t.parent.writes[oid] = v
	}
}

func TestStorageAgainstModel(t *testing.T) {
	topo := newTopo()
	s, err := Open(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mdl := &model{committed: map[datum.OID]int64{}}

	rng := rand.New(rand.NewSource(99))
	var nextTxn lock.TxnID = 1
	var oidPool []datum.OID
	for i := 0; i < 10; i++ {
		oidPool = append(oidPool, s.AllocOID())
	}

	// Active transaction stack (single-threaded schedule: we always
	// operate on the innermost active transaction — exactly the
	// parent-suspension discipline).
	var stack []*modelTxn

	begin := func() *modelTxn {
		var parent *modelTxn
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		tx := &modelTxn{id: nextTxn, parent: parent, writes: map[datum.OID]*int64{}}
		if parent != nil {
			topo.setParent(tx.id, parent.id)
		}
		nextTxn++
		stack = append(stack, tx)
		return tx
	}

	finish := func(commit bool) {
		tx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if commit {
			mdl.commit(tx)
			if tx.parent == nil {
				if err := s.CommitTop(tx.id); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := s.CommitNested(tx.id, tx.parent.id); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			s.AbortTxn(tx.id)
		}
	}

	verifyAll := func(step int) {
		var reader *modelTxn
		readerID := lock.TxnID(0)
		if len(stack) > 0 {
			reader = stack[len(stack)-1]
			readerID = reader.id
		}
		for _, oid := range oidPool {
			wantV, wantOK := int64(0), false
			if reader != nil {
				wantV, wantOK = mdl.lookup(reader, oid)
			} else if v, ok := mdl.committed[oid]; ok {
				wantV, wantOK = v, true
			}
			rec, gotOK := s.Get(readerID, oid)
			if gotOK != wantOK {
				t.Fatalf("step %d: Get(%d,%v) ok=%v want %v", step, readerID, oid, gotOK, wantOK)
			}
			if gotOK && rec.AsMap()["v"].AsInt() != wantV {
				t.Fatalf("step %d: Get(%d,%v) = %d want %d", step, readerID, oid,
					rec.AsMap()["v"].AsInt(), wantV)
			}
		}
		// Scan agreement: live count matches the model.
		want := 0
		for _, oid := range oidPool {
			if reader != nil {
				if _, ok := mdl.lookup(reader, oid); ok {
					want++
				}
			} else if _, ok := mdl.committed[oid]; ok {
				want++
			}
		}
		got := 0
		s.ScanClass(readerID, "M", func(Object) bool { got++; return true })
		if got != want {
			t.Fatalf("step %d: scan found %d, model %d", step, got, want)
		}
	}

	for step := 0; step < 20_000; step++ {
		switch op := rng.Intn(10); {
		case op < 2: // begin (bounded depth)
			if len(stack) < 5 {
				begin()
			}
		case op < 4: // finish
			if len(stack) > 0 {
				finish(rng.Intn(2) == 0)
			}
		case op < 8: // put
			if len(stack) == 0 {
				begin()
			}
			tx := stack[len(stack)-1]
			oid := oidPool[rng.Intn(len(oidPool))]
			v := rng.Int63n(1000)
			tx.writes[oid] = &v
			s.Put(tx.id, Record{OID: oid, Class: "M",
				Attrs: map[string]datum.Value{"v": datum.Int(v)}})
		default: // delete
			if len(stack) == 0 {
				begin()
			}
			tx := stack[len(stack)-1]
			oid := oidPool[rng.Intn(len(oidPool))]
			// Only delete objects currently visible (matching the
			// object layer, which refuses deletes of missing objects).
			if _, ok := mdl.lookup(tx, oid); !ok {
				continue
			}
			tx.writes[oid] = nil
			s.Put(tx.id, Record{OID: oid, Class: "M", Deleted: true})
		}
		if step%500 == 0 {
			verifyAll(step)
		}
	}
	// Drain the stack and verify the committed tier.
	for len(stack) > 0 {
		finish(true)
	}
	verifyAll(-1)

	// Also compare the full committed extent.
	got := map[datum.OID]int64{}
	s.ScanClass(0, "M", func(r Object) bool {
		got[r.OID] = r.AsMap()["v"].AsInt()
		return true
	})
	if len(got) != len(mdl.committed) {
		t.Fatalf("committed extent: %d objects, model %d", len(got), len(mdl.committed))
	}
	for oid, v := range mdl.committed {
		if got[oid] != v {
			t.Fatalf("oid %v: %d vs model %d", oid, got[oid], v)
		}
	}
}

// TestRecoveryEquivalenceWithCheckpoints is the recovery-equivalence
// property: a store that checkpoints (and reopens) at random points
// must end in exactly the state of a twin store fed the identical
// schedule with checkpointing disabled — replay-only recovery is the
// ground truth the fuzzy checkpointer is judged against. Both are
// also compared against an in-memory committed model.
func TestRecoveryEquivalenceWithCheckpoints(t *testing.T) {
	topo := newTopo()
	dirA, dirB := t.TempDir(), t.TempDir()
	open := func(dir string) *Store {
		s, err := Open(topo, Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := open(dirA), open(dirB) // a checkpoints; b never does
	defer func() { a.Close(); b.Close() }()

	committed := map[datum.OID]int64{}
	rng := rand.New(rand.NewSource(7))
	// A fixed OID pool (no AllocOID) keeps the schedule identical on
	// both stores across reopens.
	oidPool := make([]datum.OID, 12)
	for i := range oidPool {
		oidPool[i] = datum.OID(i + 1)
	}
	next := lock.TxnID(1)

	verify := func(step int) {
		for _, oid := range oidPool {
			wantV, wantOK := committed[oid]
			ra, okA := a.Get(0, oid)
			rb, okB := b.Get(0, oid)
			if okA != wantOK || okB != wantOK {
				t.Fatalf("step %d oid %v: okA=%v okB=%v want %v", step, oid, okA, okB, wantOK)
			}
			if wantOK && (ra.AsMap()["v"].AsInt() != wantV || rb.AsMap()["v"].AsInt() != wantV) {
				t.Fatalf("step %d oid %v: a=%d b=%d want %d", step, oid,
					ra.AsMap()["v"].AsInt(), rb.AsMap()["v"].AsInt(), wantV)
			}
		}
	}

	for step := 0; step < 800; step++ {
		switch r := rng.Intn(20); {
		case r < 12: // one whole top-level transaction on both stores
			tx := next
			next++
			writes := map[datum.OID]*int64{}
			for i, nops := 0, 1+rng.Intn(4); i < nops; i++ {
				oid := oidPool[rng.Intn(len(oidPool))]
				del := rng.Intn(6) == 0
				if del {
					// Delete only visible objects (the object layer's rule).
					if w, ok := writes[oid]; ok {
						if w == nil {
							continue
						}
					} else if _, ok := committed[oid]; !ok {
						continue
					}
					writes[oid] = nil
					a.Put(tx, Record{OID: oid, Class: "E", Deleted: true})
					b.Put(tx, Record{OID: oid, Class: "E", Deleted: true})
					continue
				}
				v := rng.Int63n(1_000_000)
				writes[oid] = &v
				r := Record{OID: oid, Class: "E", Attrs: map[string]datum.Value{"v": datum.Int(v)}}
				a.Put(tx, r)
				b.Put(tx, r)
			}
			if rng.Intn(5) == 0 {
				a.AbortTxn(tx)
				b.AbortTxn(tx)
				break
			}
			if err := a.CommitTop(tx); err != nil {
				t.Fatal(err)
			}
			if err := b.CommitTop(tx); err != nil {
				t.Fatal(err)
			}
			for oid, w := range writes {
				if w == nil {
					delete(committed, oid)
				} else {
					committed[oid] = *w
				}
			}
		case r < 16: // checkpoint the checkpointing store only
			if _, err := a.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case r < 18: // crash-free reopen of the checkpointing store
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			a = open(dirA)
		default: // reopen of the replay-only store
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b = open(dirB)
		}
		if step%100 == 0 {
			verify(step)
		}
	}

	// Final reopen of both, then full-extent equality.
	a.Close()
	b.Close()
	a, b = open(dirA), open(dirB)
	verify(-1)
	gotA := map[datum.OID]int64{}
	a.ScanClass(0, "E", func(r Object) bool { gotA[r.OID] = r.AsMap()["v"].AsInt(); return true })
	gotB := map[datum.OID]int64{}
	b.ScanClass(0, "E", func(r Object) bool { gotB[r.OID] = r.AsMap()["v"].AsInt(); return true })
	if len(gotA) != len(committed) || len(gotB) != len(committed) {
		t.Fatalf("extents: a=%d b=%d model=%d", len(gotA), len(gotB), len(committed))
	}
	for oid, v := range committed {
		if gotA[oid] != v || gotB[oid] != v {
			t.Fatalf("oid %v: a=%d b=%d model=%d", oid, gotA[oid], gotB[oid], v)
		}
	}
}

// TestDeltaChainRandomizedEquivalence is the chain-randomizing
// property test: 50 seeded rounds, each a random interleaving of
// committed/aborted transactions, delta checkpoints, forced
// compactions, and crash-free reopens on store a, against a twin
// store b fed the identical transaction schedule but recovering by
// replay only. After a final reopen of both, the committed extents
// must be *byte-equal* under the canonical redo encoding — not just
// value-equal — so any divergence in attrs, tombstone handling, or
// record shape introduced by the chain fold fails loudly.
func TestDeltaChainRandomizedEquivalence(t *testing.T) {
	const rounds = 50
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("seed%02d", round), func(t *testing.T) {
			runChainEquivalenceRound(t, int64(round))
		})
	}
}

func runChainEquivalenceRound(t *testing.T, seed int64) {
	topo := newTopo()
	rng := rand.New(rand.NewSource(0x5eed0000 + seed))
	dirA, dirB := t.TempDir(), t.TempDir()
	open := func(dir string) *Store {
		s, err := Open(topo, Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := open(dirA), open(dirB)
	defer func() { a.Close(); b.Close() }()

	oidPool := make([]datum.OID, 10)
	for i := range oidPool {
		oidPool[i] = datum.OID(i + 1)
	}
	live := map[datum.OID]bool{}
	next := lock.TxnID(1)

	// Over the ten-object pool alone a delta is as large as the full
	// snapshot, so the chain compacts every checkpoint or two. Half the
	// rounds pad the base first, so the chain only compacts via the
	// explicit Compact calls in the schedule.
	if rng.Intn(2) == 0 {
		padBase(t, next, a, b)
		next++
	}

	for step := 0; step < 120; step++ {
		switch r := rng.Intn(20); {
		case r < 12: // one whole top-level transaction on both stores
			tx := next
			next++
			writes := map[datum.OID]bool{}
			for i, nops := 0, 1+rng.Intn(4); i < nops; i++ {
				oid := oidPool[rng.Intn(len(oidPool))]
				if rng.Intn(6) == 0 {
					if w, wrote := writes[oid]; (wrote && !w) || (!wrote && !live[oid]) {
						continue
					}
					writes[oid] = false
					rec := Record{OID: oid, Class: "E", Deleted: true}
					a.Put(tx, rec)
					b.Put(tx, rec)
					continue
				}
				writes[oid] = true
				rec := Record{OID: oid, Class: "E",
					Attrs: map[string]datum.Value{"v": datum.Int(rng.Int63n(1_000_000))}}
				a.Put(tx, rec)
				b.Put(tx, rec)
			}
			if rng.Intn(5) == 0 {
				a.AbortTxn(tx)
				b.AbortTxn(tx)
				break
			}
			if err := a.CommitTop(tx); err != nil {
				t.Fatal(err)
			}
			if err := b.CommitTop(tx); err != nil {
				t.Fatal(err)
			}
			for oid, w := range writes {
				live[oid] = w
			}
		case r < 15: // delta (or due-for-compaction full) checkpoint
			if _, err := a.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case r < 17: // forced compaction into a fresh full snapshot
			if _, err := a.Compact(); err != nil {
				t.Fatal(err)
			}
		case r < 19: // crash-free reopen: recover through the chain
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			a = open(dirA)
		default: // reopen of the replay-only twin
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b = open(dirB)
		}
	}

	// Final reopen of both, then byte-equality of the extents.
	a.Close()
	b.Close()
	a, b = open(dirA), open(dirB)
	dump := func(s *Store) []byte {
		var recs []Object
		s.ScanClass(0, "E", func(r Object) bool { recs = append(recs, r); return true })
		sort.Slice(recs, func(i, j int) bool { return recs[i].OID < recs[j].OID })
		return encodeRedo(recs)
	}
	da, db := dump(a), dump(b)
	if !bytes.Equal(da, db) {
		t.Fatalf("chain-recovered store diverges from replay-only twin:\n a: %d bytes\n b: %d bytes",
			len(da), len(db))
	}
}
