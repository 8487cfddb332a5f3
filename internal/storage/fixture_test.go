package storage

// TestDurabilityFixtures holds today's code to bytes an older build
// wrote: testdata/durability holds a snapshot chain (one full snapshot,
// one delta) and a WAL tail produced by fixtureScript, plus the chain
// elements that checkpointing the recovered store wrote back then. The
// fixtures must not be regenerated to make the test pass — a change to
// the in-memory record layout has to load them, and write them, the
// same as the build that made them. -write-fixtures rewrites them.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/lock"
)

var writeFixtures = flag.Bool("write-fixtures", false, "rewrite testdata/durability from the current code")

const fixtureDir = "testdata/durability"

// fixtureInputs are the files recovery reads; fixtureOutputs name the
// files the recovered store's checkpoints wrote.
var (
	fixtureInputs  = []string{fullSnapshotName, deltaName(1), "wal"}
	fixtureOutputs = []string{"checkpoint-delta", "checkpoint-full"}
)

// fixtureScript returns the fixture's commits in three phases: those
// folded into the full snapshot, those in the delta, and the WAL tail.
// Classes mix attribute sets, and the values cover every kind, null
// entries, NaN and ±Inf, non-UTF-8 and empty strings, and nested lists.
func fixtureScript() (full, delta, tail [][]Record) {
	r := func(oid datum.OID, class string, attrs map[string]datum.Value) Record {
		return Record{OID: oid, Class: class, Attrs: attrs}
	}
	del := func(oid datum.OID, class string) Record { return Record{OID: oid, Class: class, Deleted: true} }
	stock := func(i int, price float64) map[string]datum.Value {
		return map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("S%03d", i)),
			"price":  datum.Float(price),
			"sector": datum.ID(datum.OID(1 + i%4)),
			"tags":   datum.List(datum.Str("a"), datum.Int(int64(i))),
		}
	}
	var sectors []Record
	for i := 0; i < 4; i++ {
		sectors = append(sectors, r(datum.OID(1+i), "Sector", map[string]datum.Value{
			"name": datum.Str(fmt.Sprintf("sector-%d", i)), "boost": datum.Int(int64(i))}))
	}
	full = append(full, sectors)
	for lo := 0; lo < 20; lo += 5 {
		var c []Record
		for i := lo; i < lo+5; i++ {
			c = append(c, r(datum.OID(5+i), "Stock", stock(i, 10.5*float64(i))))
		}
		full = append(full, c)
	}
	var notes []Record
	for i := 0; i < 6; i++ {
		attrs := map[string]datum.Value{}
		switch i % 3 {
		case 0:
			attrs["text"] = datum.Str("")
		case 1:
			attrs["text"] = datum.Str("\xff\xfe")
			attrs["when"] = datum.Time(time.Unix(int64(1e9+i), 7).UTC())
		}
		notes = append(notes, r(datum.OID(25+i), "Note", attrs))
	}
	full = append(full, notes, []Record{r(31, "Misc", map[string]datum.Value{
		"flag": datum.Bool(true), "maybe": datum.Null(),
		"inf": datum.Float(math.Inf(1)), "ninf": datum.Float(math.Inf(-1)), "nan": datum.Float(math.NaN()),
		"neg": datum.Int(-1 << 62), "empty": datum.List(),
		"nested": datum.List(datum.List(datum.Int(1)), datum.Str("x")),
	})})

	moved := stock(3, 1)
	delete(moved, "tags")
	delta = [][]Record{
		{r(5, "Stock", stock(0, 99)), r(6, "Stock", stock(1, 98)), r(7, "Stock", stock(2, 97))},
		{r(8, "Stock", moved)},
		{r(25, "Note", map[string]datum.Value{"text": datum.Str("now"), "when": datum.Time(time.Unix(5, 0).UTC())})},
		{del(9, "Stock"), del(26, "Note")},
		{r(32, "Stock", map[string]datum.Value{"symbol": datum.Str("NEW")}), r(33, "Note", map[string]datum.Value{"text": datum.Str("t")})},
	}
	tail = [][]Record{
		{r(10, "Stock", stock(5, -0.25))},
		{r(2, "Sector", map[string]datum.Value{"name": datum.Str("sector-1"), "boost": datum.Int(-7)})},
		{r(34, "Misc", map[string]datum.Value{"flag": datum.Bool(false), "maybe": datum.Null()}),
			del(31, "Misc"), r(5, "Stock", stock(0, 1e300))},
		{del(32, "Stock")},
	}
	return full, delta, tail
}

// fixtureObj is one live object of the plain-map model.
type fixtureObj struct {
	class string
	attrs map[string]datum.Value
}

func fixtureModel() map[datum.OID]fixtureObj {
	m := map[datum.OID]fixtureObj{}
	full, delta, tail := fixtureScript()
	for _, c := range slices.Concat(full, delta, tail) {
		for _, r := range c {
			if r.Deleted {
				delete(m, r.OID)
			} else {
				m[r.OID] = fixtureObj{r.Class, r.Attrs}
			}
		}
	}
	return m
}

// checkFixtureModel compares every object the script ever wrote, by Get
// and by class scan, with the model. Attributes compare by their
// encoding, so NaN equals itself and -0 differs from 0.
func checkFixtureModel(t *testing.T, s *Store) {
	t.Helper()
	model := fixtureModel()
	enc := func(m map[string]datum.Value) []byte { return datum.EncodeMap(nil, m) }
	byClass := map[string][]datum.OID{}
	for oid := datum.OID(1); oid <= 34; oid++ {
		want, live := model[oid]
		got, ok := s.Get(0, oid)
		if ok != live {
			t.Fatalf("Get(%v): live=%v, model says %v", oid, ok, live)
		}
		if !live {
			continue
		}
		byClass[want.class] = append(byClass[want.class], oid)
		if got.Class != want.class || !bytes.Equal(enc(got.AsMap()), enc(want.attrs)) {
			t.Fatalf("Get(%v) = %s %v, model %s %v", oid, got.Class, got.AsMap(), want.class, want.attrs)
		}
	}
	for _, class := range []string{"Sector", "Stock", "Note", "Misc"} {
		var oids []datum.OID
		s.ScanClass(0, class, func(got Object) bool {
			oids = append(oids, got.OID)
			if !bytes.Equal(enc(got.AsMap()), enc(model[got.OID].attrs)) {
				t.Errorf("scan %s: %v = %v, model %v", class, got.OID, got.AsMap(), model[got.OID].attrs)
			}
			return true
		})
		if !slices.Equal(oids, byClass[class]) {
			t.Fatalf("scan %s = %v, model %v", class, oids, byClass[class])
		}
	}
	if next := s.nextOID.Load(); next != 35 {
		t.Fatalf("next OID after recovery = %d, want 35", next)
	}
}

func copyFiles(t *testing.T, from, to string, names ...string) {
	t.Helper()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// writeDurabilityFixtures runs fixtureScript against a fresh durable
// store, checkpointing after the first two phases.
func writeDurabilityFixtures(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	tx := lock.TxnID(0)
	run := func(commits [][]Record, kind string) {
		for _, c := range commits {
			tx++
			for _, r := range c {
				for s.nextOID.Load() <= uint64(r.OID) {
					s.AllocOID()
				}
				s.Put(tx, r)
			}
			if err := s.CommitTop(tx); err != nil {
				t.Fatal(err)
			}
		}
		if kind == "" {
			return
		}
		if res, err := s.Checkpoint(); err != nil || res.Kind != kind {
			t.Fatalf("checkpoint = %+v, %v; want %s", res, err, kind)
		}
	}
	full, delta, tail := fixtureScript()
	run(full, "full")
	run(delta, "delta")
	run(tail, "")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(fixtureDir, 0o755); err != nil {
		t.Fatal(err)
	}
	copyFiles(t, dir, fixtureDir, fixtureInputs...)
}

func TestDurabilityFixtures(t *testing.T) {
	if *writeFixtures {
		writeDurabilityFixtures(t)
	}
	dir := t.TempDir()
	copyFiles(t, fixtureDir, dir, fixtureInputs...)
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	checkFixtureModel(t, s)

	// The recovered store's checkpoints: a delta of the WAL tail, then a
	// compaction into one full snapshot.
	if res, err := s.Checkpoint(); err != nil || res.Kind != "delta" {
		t.Fatalf("checkpoint = %+v, %v; want a delta", res, err)
	}
	if res, err := s.Compact(); err != nil || res.Kind != "full" {
		t.Fatalf("compact = %+v, %v; want full", res, err)
	}
	// Compaction removed the delta it just wrote; the first checkpoint's
	// file is checked from a second recovery below.
	got := map[string][]byte{}
	b, err := os.ReadFile(filepath.Join(dir, fullSnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	got["checkpoint-full"] = b
	s.Close()

	dir2 := t.TempDir()
	copyFiles(t, fixtureDir, dir2, fixtureInputs...)
	s2, err := Open(newTopo(), Options{Dir: dir2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got["checkpoint-delta"], err = os.ReadFile(filepath.Join(dir2, deltaName(2))); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	for _, name := range fixtureOutputs {
		path := filepath.Join(fixtureDir, name)
		if *writeFixtures {
			if err := os.WriteFile(path, got[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s: the recovered store wrote %d bytes that differ from the fixture's %d", name, len(got[name]), len(want))
		}
	}

	// The compacted snapshot alone recovers the same state.
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, fullSnapshotName), got["checkpoint-full"], 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(newTopo(), Options{Dir: dir3, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	checkFixtureModel(t, s3)
}
