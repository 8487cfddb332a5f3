package cep

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datum"
)

var epoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return epoch.Add(d) }

// occ builds a correlated occurrence with the test's standard "k"
// correlation attribute.
func occ(part int, ts time.Duration, key string) Occurrence {
	return Occurrence{Part: part, Time: at(ts),
		Bindings: map[string]datum.Value{"k": datum.Str(key)}}
}

func correlCfg(cfg Config) Config {
	cfg.CorrelAttr = "k"
	cfg.CorrelVar = "key"
	return cfg
}

func TestWithinFiresInsideWindow(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KWithin, Parts: 3, Window: time.Minute}), 4)
	if f := tm.Offer(occ(0, 0, "a")); len(f) != 0 {
		t.Fatalf("fired on first part: %v", f)
	}
	if f := tm.Offer(occ(1, 10*time.Second, "a")); len(f) != 0 {
		t.Fatalf("fired mid-sequence: %v", f)
	}
	f := tm.Offer(occ(2, 50*time.Second, "a"))
	if len(f) != 1 {
		t.Fatalf("completed sequence fired %d times, want 1", len(f))
	}
	if got := f[0].Bindings["key"]; got.AsString() != "a" {
		t.Fatalf("correl binding = %v, want a", got)
	}
	if ws := f[0].Bindings["cep_window_start"]; !ws.AsTime().Equal(at(0)) {
		t.Fatalf("cep_window_start = %v", ws)
	}
	if st := tm.Stats(); st.Partials != 0 || st.Instances != 0 {
		t.Fatalf("state left after firing: %+v", st)
	}
}

func TestWithinExpiresPastWindow(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KWithin, Parts: 2, Window: time.Minute}), 4)
	tm.Offer(occ(0, 0, "a"))
	// The second part arrives past the window: the stale partial is
	// dropped by opportunistic expiry, no firing.
	if f := tm.Offer(occ(1, 2*time.Minute, "a")); len(f) != 0 {
		t.Fatalf("fired past window: %v", f)
	}
	st := tm.Stats()
	if st.Expired != 1 || st.Fired != 0 {
		t.Fatalf("stats = %+v, want 1 expired 0 fired", st)
	}
}

func TestWithinOutOfOrderDoesNotAdvance(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KWithin, Parts: 3, Window: time.Minute}), 4)
	tm.Offer(occ(0, 0, "a"))
	tm.Offer(occ(2, time.Second, "a")) // part 2 before part 1
	if f := tm.Offer(occ(1, 2*time.Second, "a")); len(f) != 0 {
		t.Fatalf("fired out of order: %v", f)
	}
	// Now complete properly.
	if f := tm.Offer(occ(2, 3*time.Second, "a")); len(f) != 1 {
		t.Fatalf("ordered completion fired %d times", len(f))
	}
}

func TestWithinMaxPartialsCap(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KWithin, Parts: 2, Window: time.Hour, MaxPartials: 8}), 4)
	for i := 0; i < 100; i++ {
		tm.Offer(occ(0, time.Duration(i)*time.Second, "a"))
	}
	if st := tm.Stats(); st.Partials != 8 || st.Expired != 92 {
		t.Fatalf("stats = %+v, want 8 partials / 92 expired", st)
	}
}

func TestDuringFiresAtIntervalEnd(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KDuring, Parts: 3}), 4)
	tm.Offer(occ(1, 0, "a"))             // start
	tm.Offer(occ(0, 5*time.Second, "a")) // event inside
	tm.Offer(occ(0, 6*time.Second, "a")) // another
	f := tm.Offer(occ(2, 10*time.Second, "a"))
	if len(f) != 1 {
		t.Fatalf("interval end fired %d times, want 1", len(f))
	}
	if n := f[0].Bindings["cep_count"]; n.AsInt() != 2 {
		t.Fatalf("cep_count = %v, want 2", n)
	}
}

func TestDuringEmptyIntervalDoesNotFire(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KDuring, Parts: 3}), 4)
	tm.Offer(occ(0, 0, "a")) // event before any start: ignored
	tm.Offer(occ(1, time.Second, "a"))
	if f := tm.Offer(occ(2, 2*time.Second, "a")); len(f) != 0 {
		t.Fatalf("empty interval fired: %v", f)
	}
	tm.Offer(occ(0, 3*time.Second, "a")) // event after end: ignored
	if st := tm.Stats(); st.Fired != 0 || st.Instances != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDuringDeliveryPermutations drives all six delivery orders of
// (event, start, end): the interval fires exactly when the event is
// delivered after the start and before the end.
func TestDuringDeliveryPermutations(t *testing.T) {
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		tm := New(correlCfg(Config{Kind: KDuring, Parts: 3}), 4)
		fired := 0
		for i, part := range perm {
			fired += len(tm.Offer(occ(part, time.Duration(i)*time.Second, "a")))
		}
		// Expected: start (1) before event (0) before end (2).
		pos := map[int]int{}
		for i, part := range perm {
			pos[part] = i
		}
		want := 0
		if pos[1] < pos[0] && pos[0] < pos[2] {
			want = 1
		}
		if fired != want {
			t.Errorf("order %v fired %d, want %d", perm, fired, want)
		}
	}
}

func TestSlidingWindow(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KSliding, Parts: 1, Count: 3}), 4)
	fired := 0
	for i := 0; i < 5; i++ {
		fired += len(tm.Offer(occ(0, time.Duration(i)*time.Second, "a")))
	}
	// Fires on the 3rd, 4th, and 5th occurrence (window slides).
	if fired != 3 {
		t.Fatalf("sliding fired %d, want 3", fired)
	}
}

func TestTumblingWindow(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KTumbling, Parts: 1, Count: 3}), 4)
	fired := 0
	for i := 0; i < 7; i++ {
		fired += len(tm.Offer(occ(0, time.Duration(i)*time.Second, "a")))
	}
	// Fires on the 3rd and 6th (bucket resets), not the 7th.
	if fired != 2 {
		t.Fatalf("tumbling fired %d, want 2", fired)
	}
}

func TestAggregateFiresOncePerBurst(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KAggregate, Parts: 1, Count: 10, Window: time.Minute}), 4)
	fired := 0
	for i := 0; i < 25; i++ {
		fired += len(tm.Offer(occ(0, time.Duration(i)*time.Second, "a")))
	}
	// 25 occurrences inside one window: the 10th fires and consumes,
	// the 20th fires and consumes, 5 left pending.
	if fired != 2 {
		t.Fatalf("aggregate fired %d, want 2", fired)
	}
	if st := tm.Stats(); st.Partials != 5 {
		t.Fatalf("pending partials = %d, want 5", st.Partials)
	}
}

func TestAggregateWindowSlides(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KAggregate, Parts: 1, Count: 3, Window: 10 * time.Second}), 4)
	tm.Offer(occ(0, 0, "a"))
	tm.Offer(occ(0, 1*time.Second, "a"))
	// Third occurrence arrives after the first two slid out: no firing.
	if f := tm.Offer(occ(0, 30*time.Second, "a")); len(f) != 0 {
		t.Fatalf("fired across window gap: %v", f)
	}
	tm.Offer(occ(0, 31*time.Second, "a"))
	if f := tm.Offer(occ(0, 32*time.Second, "a")); len(f) != 1 {
		t.Fatalf("dense burst fired %d, want 1", len(f))
	}
}

func TestCorrelationKeysAreIndependent(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KAggregate, Parts: 1, Count: 3, Window: time.Hour}), 8)
	tm.Offer(occ(0, 0, "a"))
	tm.Offer(occ(0, 1*time.Second, "b"))
	tm.Offer(occ(0, 2*time.Second, "a"))
	tm.Offer(occ(0, 3*time.Second, "b"))
	f := tm.Offer(occ(0, 4*time.Second, "a"))
	if len(f) != 1 || f[0].Bindings["key"].AsString() != "a" {
		t.Fatalf("key a completion: %v", f)
	}
	if st := tm.Stats(); st.Instances != 1 || st.Partials != 2 {
		t.Fatalf("stats after a fired = %+v, want b's instance with 2 partials", st)
	}
}

func TestUncorrelatableOccurrenceIgnored(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KSliding, Parts: 1, Count: 1}), 4)
	if f := tm.Offer(Occurrence{Part: 0, Time: at(0),
		Bindings: map[string]datum.Value{"other": datum.Int(1)}}); len(f) != 0 {
		t.Fatalf("fired without correl attr: %v", f)
	}
	if f := tm.Offer(Occurrence{Part: 0, Time: at(0),
		Bindings: map[string]datum.Value{"k": datum.Null()}}); len(f) != 0 {
		t.Fatalf("fired on null correl attr: %v", f)
	}
	if st := tm.Stats(); st.Instances != 0 {
		t.Fatalf("instance allocated for uncorrelatable occurrence: %+v", st)
	}
}

// TestGCBoundsMemory is the bounded-memory acceptance test: a
// sustained stream of never-completing first parts across many keys,
// with periodic GC at the advancing logical time, must keep the live
// partial and instance counts flat at the level one window can hold —
// not grow with the total number of occurrences.
func TestGCBoundsMemory(t *testing.T) {
	const window = 10 * time.Second
	tm := New(correlCfg(Config{Kind: KWithin, Parts: 2, Window: window}), 8)
	maxPartials, maxInstances := 0, 0
	// 200 keys, one non-matching part-0 occurrence per key per second,
	// for 10 windows' worth of stream; GC once per second.
	for sec := 0; sec < 100; sec++ {
		now := time.Duration(sec) * time.Second
		for k := 0; k < 200; k++ {
			tm.Offer(occ(0, now, fmt.Sprintf("key-%03d", k)))
		}
		tm.GC(at(now))
		if st := tm.Stats(); st.Partials > maxPartials {
			maxPartials = st.Partials
		}
		if st := tm.Stats(); st.Instances > maxInstances {
			maxInstances = st.Instances
		}
	}
	// One window holds at most window/1s+1 = 11 occurrences per key.
	bound := 200 * 12
	if maxPartials > bound {
		t.Fatalf("partials peaked at %d, want <= %d (one window's worth)", maxPartials, bound)
	}
	if maxInstances > 200 {
		t.Fatalf("instances peaked at %d, want <= 200", maxInstances)
	}
	// After the stream stops, one GC past the window empties the state.
	tm.GC(at(1000 * time.Second))
	if st := tm.Stats(); st.Partials != 0 || st.Instances != 0 {
		t.Fatalf("state survived final GC: %+v", st)
	}
}

// TestInterleavingInvariance is the property test for the windowed
// operators: per-key occurrence sequences merged in any cross-key
// interleaving (preserving each key's own order) must produce exactly
// the same firings per key — shard state is keyed, so other keys'
// traffic can never perturb an automaton.
func TestInterleavingInvariance(t *testing.T) {
	kinds := []Config{
		{Kind: KWithin, Parts: 3, Window: 30 * time.Second},
		{Kind: KAggregate, Parts: 1, Count: 4, Window: 30 * time.Second},
		{Kind: KSliding, Parts: 1, Count: 3},
		{Kind: KTumbling, Parts: 1, Count: 3},
	}
	const keys = 8
	for _, cfg := range kinds {
		cfg := correlCfg(cfg)
		// Per-key random occurrence sequences with increasing times.
		gen := rand.New(rand.NewSource(42))
		seqs := make([][]Occurrence, keys)
		for k := range seqs {
			ts := time.Duration(0)
			for i := 0; i < 40; i++ {
				ts += time.Duration(1+gen.Intn(10)) * time.Second
				seqs[k] = append(seqs[k], occ(gen.Intn(cfg.Parts), ts, fmt.Sprintf("k%d", k)))
			}
		}
		run := func(seed int64) map[string]int {
			r := rand.New(rand.NewSource(seed))
			tm := New(cfg, 8)
			idx := make([]int, keys)
			fired := map[string]int{}
			for {
				// Pick a random key with occurrences left.
				live := make([]int, 0, keys)
				for k := range idx {
					if idx[k] < len(seqs[k]) {
						live = append(live, k)
					}
				}
				if len(live) == 0 {
					break
				}
				k := live[r.Intn(len(live))]
				for _, f := range tm.Offer(seqs[k][idx[k]]) {
					fired[f.Bindings["key"].AsString()]++
				}
				idx[k]++
			}
			return fired
		}
		want := run(1)
		for seed := int64(2); seed <= 6; seed++ {
			got := run(seed)
			for k := 0; k < keys; k++ {
				name := fmt.Sprintf("k%d", k)
				if got[name] != want[name] {
					t.Fatalf("kind %v: interleaving %d changed %s firings: %d vs %d",
						cfg.Kind, seed, name, got[name], want[name])
				}
			}
		}
	}
}

// TestShardDistribution: many keys must spread across more than one
// shard (maphash seeds vary, so assert a weak but robust property).
func TestShardDistribution(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KAggregate, Parts: 1, Count: 1000, Window: time.Hour}), 8)
	for k := 0; k < 256; k++ {
		tm.Offer(occ(0, time.Duration(k)*time.Millisecond, fmt.Sprintf("key-%03d", k)))
	}
	dist := tm.ShardInstances()
	nonEmpty, total := 0, 0
	for _, n := range dist {
		if n > 0 {
			nonEmpty++
		}
		total += n
	}
	if total != 256 {
		t.Fatalf("instances = %d, want 256", total)
	}
	if nonEmpty < 2 {
		t.Fatalf("256 keys landed on %d shard(s): %v", nonEmpty, dist)
	}
}

func TestConcurrentOffers(t *testing.T) {
	tm := New(correlCfg(Config{Kind: KAggregate, Parts: 1, Count: 10, Window: time.Hour}), 8)
	const workers = 8
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			fired := 0
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("key-%d", (i+w)%16)
				fired += len(tm.Offer(occ(0, time.Duration(i)*time.Millisecond, key)))
			}
			done <- fired
		}(w)
	}
	fired := 0
	for w := 0; w < workers; w++ {
		fired += <-done
	}
	st := tm.Stats()
	// 8000 occurrences over 16 keys, threshold 10: every firing
	// consumes exactly 10, so fired*10 + pending == 8000.
	if fired*10+st.Partials != 8000 {
		t.Fatalf("occurrence accounting: %d firings, %d pending", fired, st.Partials)
	}
}
