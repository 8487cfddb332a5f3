package plan

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/query"
)

// parFake builds a class big enough that every range holds rows:
// n objects with int x (= i), float f (order-sensitive sums), and a
// symbol cycling over 8 values for join fan-out.
func parFake(n int) *fakeReader {
	f := newFake()
	for i := 0; i < n; i++ {
		f.add("S", datum.OID(i+1), map[string]datum.Value{
			"x":   datum.Int(int64(i)),
			"f":   datum.Float(float64(i) * 0.1),
			"sym": datum.Str(fmt.Sprintf("SYM%d", i%8)),
		})
	}
	for i := 0; i < 8; i++ {
		f.add("T", datum.OID(10000+i), map[string]datum.Value{
			"sym":  datum.Str(fmt.Sprintf("SYM%d", i)),
			"rank": datum.Int(int64(i)),
		})
	}
	return f
}

// TestParallelMatchesSerialByteEquality runs randomized rounds of the
// core query shapes at parallelism 1 vs N, asserting byte-identical
// results (Result.Equal compares floats bit-exactly). Run under -race: the workers share the reader, the
// prebuilt hash table, and nothing else.
func TestParallelMatchesSerialByteEquality(t *testing.T) {
	queries := []string{
		"select s.x from S s where s.x >= event.lo",
		"select s.f from S s where s.x % 3 = 0 order by s.f desc limit 40",
		"select s.x, t.rank from S s, T t where s.sym = t.sym and s.x < event.hi",
		"select count(*) as n, sum(s.x) as sx, min(s.x) as lo, max(s.x) as hi from S s where s.x >= event.lo",
		"select sum(s.f) as fs, avg(s.f) as fa from S s where s.x < event.hi",
		"select count(*) as n, sum(s.x) as sx from S s, T t where s.sym = t.sym and t.rank = event.r",
		// Empty outer: the fanned-out base scan yields nothing, so the
		// later stages (and the aggregate fan-out) have nothing to claim.
		"select s.x, t.rank from S s, T t where s.x < 0 and s.sym = t.sym",
		"select count(*) as n, max(t.rank) as hi from S s, T t where s.x < 0 and s.sym = t.sym",
	}
	rng := rand.New(rand.NewSource(7))
	f := parFake(300)
	for round := 0; round < 24; round++ {
		src := queries[round%len(queries)]
		args := map[string]datum.Value{
			"lo": datum.Int(int64(rng.Intn(50))),
			"hi": datum.Int(int64(50 + rng.Intn(250))),
			"r":  datum.Int(int64(rng.Intn(8))),
		}
		q := query.MustParse(src)
		want, err := Build(q, f, args, Options{Parallelism: 1}).Execute(f, args)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		for _, par := range []int{2, 4, 8} {
			p := Build(q, f, args, Options{Parallelism: par, ParallelThreshold: -1})
			if p.maxPar() <= 1 {
				t.Fatalf("round %d: no parallel step at par=%d\n%s", round, par, p.Explain())
			}
			got, err := p.Execute(f, args)
			if err != nil {
				t.Fatalf("round %d par=%d: %v", round, par, err)
			}
			if !want.Equal(got) {
				t.Fatalf("round %d par=%d diverges\nquery: %s\nwant: %+v\ngot:  %+v\n%s",
					round, par, src, want, got, p.Explain())
			}
		}
	}
}

// TestParallelCancellationNoGoroutineLeak fails a residual filter mid
// range scan (division by zero on one row) and asserts that the error
// surfaces, every worker shuts down, and repeated failing executions
// leave the goroutine count at its baseline — no worker may outlive
// the fan-out.
func TestParallelCancellationNoGoroutineLeak(t *testing.T) {
	f := parFake(400)
	// One poisoned row: x = 0 divides by zero.
	q := query.MustParse("select s.x from S s where 100 / s.x >= 0")
	args := map[string]datum.Value(nil)

	if _, err := Build(q, f, args, Options{Parallelism: 1}).Execute(f, args); err == nil {
		t.Fatal("serial plan must fail on the poisoned row")
	}

	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		p := Build(q, f, args, Options{Parallelism: 8, ParallelThreshold: -1})
		if p.maxPar() <= 1 {
			t.Fatalf("scan did not parallelize:\n%s", p.Explain())
		}
		if _, err := p.Execute(f, args); err == nil {
			t.Fatal("parallel plan must fail on the poisoned row")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cancelled parallel scans: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Same shutdown contract for a failing parallel join stage: the
	// division blows up in the probe workers' residual instead.
	jq := query.MustParse("select s.x, t.rank from S s, T t where s.sym = t.sym and 100 / (s.x - s.x) >= 0")
	if _, err := Build(jq, f, args, Options{Parallelism: 1}).Execute(f, args); err == nil {
		t.Fatal("serial join must fail")
	}
	base = runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p := Build(jq, f, args, Options{Parallelism: 4, ParallelThreshold: -1})
		if _, err := p.Execute(f, args); err == nil {
			t.Fatal("parallel join must fail")
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cancelled parallel joins: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The last stage evaluates the select list and the aggregates: an
	// error there fails the query under every worker count, without
	// touching the half-written batches (FuzzPlan found the panic).
	for _, src := range []string{
		"select 100 / s.x from S s",
		"select sum(100 / s.x) from S s",
		"select s.x, 100 / (t.rank - t.rank) from S s, T t where s.sym = t.sym",
	} {
		for _, par := range []int{1, 4} {
			q := query.MustParse(src)
			if _, err := Build(q, f, args, Options{Parallelism: par, ParallelThreshold: -1}).Execute(f, args); err == nil {
				t.Fatalf("%s at parallelism %d must fail", src, par)
			}
		}
	}
}

// TestParallelAggregateMergeAndFallback pins the two aggregation
// regimes: exact-mergeable states (count/min/max/integer sum) and
// order-sensitive ones (float sum, avg) that must fall back to serial
// re-accumulation — both bit-identical to the oracle.
func TestParallelAggregateMergeAndFallback(t *testing.T) {
	f := parFake(500)
	for _, src := range []string{
		// Exact merge path.
		"select count(*) as n, sum(s.x) as sx, min(s.x) as lo, max(s.x) as hi from S s",
		// Fallback path: float sum and avg accumulate in emission order.
		"select sum(s.f) as fs, avg(s.f) as fa from S s",
		// Mixed: the fallback item forces one serial pass for all.
		"select count(*) as n, sum(s.f) as fs from S s",
		// Surrounding expression around the aggregate.
		"select sum(s.x) * 2 + 1 as twice from S s",
	} {
		q := query.MustParse(src)
		want, err := query.Eval(q, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := Build(q, f, nil, Options{Parallelism: 8, ParallelThreshold: -1})
		got, err := p.Execute(f, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !want.Equal(got) {
			t.Fatalf("%s\nwant: %+v\ngot:  %+v", src, want, got)
		}
	}
}

// TestExplainShowsParallelism: steps past the cardinality gate print
// parallel=N; gated (small) plans do not.
func TestExplainShowsParallelism(t *testing.T) {
	f := parFake(300)
	q := query.MustParse("select s.x, t.rank from S s, T t where s.sym = t.sym")
	text := Build(q, f, nil, Options{Parallelism: 8, ParallelThreshold: -1}).Explain()
	if !strings.Contains(text, "parallel=8") {
		t.Fatalf("explain misses parallel=8:\n%s", text)
	}
	// Default threshold (2048) keeps this 300-row extent serial.
	text = Build(q, f, nil, Options{Parallelism: 8}).Explain()
	if strings.Contains(text, "parallel=") {
		t.Fatalf("small extent should stay serial under the default threshold:\n%s", text)
	}
	// Parallelism 1 forces serial everywhere.
	text = Build(q, f, nil, Options{Parallelism: 1, ParallelThreshold: -1}).Explain()
	if strings.Contains(text, "parallel=") {
		t.Fatalf("Parallelism=1 must stay serial:\n%s", text)
	}
}
