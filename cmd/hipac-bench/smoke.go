// C16 and the machine-readable result plumbing. C16 is the
// scalability smoke: a fixed set of parallel workloads (point reads,
// mixed read/write, committed updates in memory and against a no-sync
// WAL) each measured at GOMAXPROCS 1 and 8. Its per-op results feed
// -json (the committed BENCH_10.json baseline) and -compare (the CI
// regression gate).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/workload"
)

// benchSchema names the -json file format.
const benchSchema = "hipac-bench/v1"

// benchFile is the -json / -compare file format: a flat metric map so
// diffing two runs is a key-by-key ratio.
type benchFile struct {
	Schema     string             `json:"schema"`
	Go         string             `json:"go"`
	NumCPU     int                `json:"num_cpu"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Metrics    map[string]float64 `json:"metrics"` // name -> ns/op
}

var metricsOut = struct {
	sync.Mutex
	m map[string]float64
}{m: map[string]float64{}}

func recordMetric(name string, nsPerOp float64) {
	metricsOut.Lock()
	metricsOut.m[name] = nsPerOp
	metricsOut.Unlock()
}

// writeBenchJSON writes every metric recorded during this run.
func writeBenchJSON(path string) error {
	out := benchFile{Schema: benchSchema, Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Metrics: metricsOut.m}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareBenchJSON checks this run's metrics against a baseline file,
// failing if any shared metric regressed by more than threshold
// (0.20 = 20% slower). Metrics only on one side are reported but not
// fatal, so adding or retiring a workload doesn't break the gate. A
// baseline recorded with a different num_cpu downgrades the whole
// comparison to informational: deltas print, nothing fails.
func compareBenchJSON(path string, threshold float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	// A baseline captured on a different CPU count is not comparable:
	// the parallel cells (p8 scalability, committer races) shift with
	// core count, so ratio gating would flag hardware, not code.
	// Report the deltas for the record but never fail.
	gate := true
	if base.NumCPU != 0 && base.NumCPU != runtime.NumCPU() {
		fmt.Printf("WARNING: baseline %s recorded on %d CPUs, this host has %d: "+
			"reporting deltas but skipping the regression gate\n",
			path, base.NumCPU, runtime.NumCPU())
		gate = false
	}
	// GOMAXPROCS matters the same way num_cpu does: the parallel cells
	// (C16/C17 p8, C21 scan/join scaling) measure oversubscription when
	// GOMAXPROCS < workers, so a baseline from a differently capped
	// runtime is informational only.
	if base.GoMaxProcs != 0 && base.GoMaxProcs != runtime.GOMAXPROCS(0) {
		fmt.Printf("WARNING: baseline %s recorded at GOMAXPROCS=%d, this run has %d: "+
			"reporting deltas but skipping the regression gate\n",
			path, base.GoMaxProcs, runtime.GOMAXPROCS(0))
		gate = false
	}
	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("=== compare vs %s (fail over +%.0f%%) ===\n", path, threshold*100)
	var failed []string
	for _, name := range names {
		baseNs := base.Metrics[name]
		curNs, ok := metricsOut.m[name]
		if !ok {
			row(name, "not measured this run")
			continue
		}
		delta := curNs/baseNs - 1
		verdict := "ok"
		if baseNs > 0 && delta > threshold {
			if gate {
				verdict = "REGRESSED"
				failed = append(failed, name)
			} else {
				verdict = "over threshold (not gated)"
			}
		}
		row(name, fmt.Sprintf("base %.0fns", baseNs), fmt.Sprintf("now %.0fns", curNs),
			fmt.Sprintf("%+.1f%%", delta*100), verdict)
	}
	for name := range metricsOut.m {
		if _, ok := base.Metrics[name]; !ok {
			row(name, "new metric (no baseline)")
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%%: %v",
			len(failed), threshold*100, failed)
	}
	if gate {
		fmt.Println("no regressions")
	} else {
		fmt.Println("comparison informational only (num_cpu mismatch)")
	}
	return nil
}

// runParallel runs procs copies of body at GOMAXPROCS=procs until the
// deadline and returns wall-clock ns per completed operation summed
// across workers (the same accounting testing.B uses for RunParallel).
func runParallel(procs int, dur time.Duration, body func(w int, stop *atomic.Bool) (int, error)) (float64, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var stop atomic.Bool
	var total atomic.Int64
	errs := make(chan error, procs)
	var wg sync.WaitGroup
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	start := time.Now()
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n, err := body(w, &stop)
			total.Add(int64(n))
			if err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, err
	}
	if total.Load() == 0 {
		return 0, fmt.Errorf("no operations completed in %v", dur)
	}
	return float64(elapsed.Nanoseconds()) / float64(total.Load()), nil
}

// smokeRead returns a read-heavy parallel workload: point reads over a
// 1024-object pool, with one committed update per writeEvery reads
// against a disjoint pool (0 = pure reads). Reader transactions are
// recycled every 512 operations to bound lock-list growth.
func smokeRead(writeEvery int) func(procs int, dur time.Duration) (float64, error) {
	return func(procs int, dur time.Duration) (float64, error) {
		e, _ := workload.MustEngine()
		defer e.Close()
		if err := workload.DefineBase(e); err != nil {
			return 0, err
		}
		oids, err := workload.SeedStocks(e, 2048)
		if err != nil {
			return 0, err
		}
		readPool, writePool := oids[:1024], oids[1024:]
		return runParallel(procs, dur, func(w int, stop *atomic.Bool) (int, error) {
			wOID := writePool[w%len(writePool)]
			tx := e.Begin()
			i := 0
			for !stop.Load() {
				i++
				if writeEvery > 0 && i%writeEvery == 0 {
					wtx := e.Begin()
					if err := e.Modify(wtx, wOID, map[string]datum.Value{
						"price": datum.Float(float64(i))}); err != nil {
						return i, err
					}
					if err := wtx.Commit(); err != nil {
						return i, err
					}
					continue
				}
				if i%512 == 0 {
					if err := tx.Commit(); err != nil {
						return i, err
					}
					tx = e.Begin()
				}
				oid := readPool[(i*31+w*17)%len(readPool)]
				if _, err := e.Get(tx, oid); err != nil {
					return i, err
				}
			}
			return i, tx.Commit()
		})
	}
}

// smokeCommit returns a parallel committed-update workload; each
// worker owns a distinct object so contention is on the store and the
// log, not on transaction conflicts. wal selects a no-sync WAL
// directory versus pure in-memory.
func smokeCommit(wal bool) func(procs int, dur time.Duration) (float64, error) {
	return func(procs int, dur time.Duration) (float64, error) {
		dir := ""
		if wal {
			var err error
			dir, err = os.MkdirTemp("", "hipac-bench-c16-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
		}
		e, err := core.Open(core.Options{Dir: dir, NoSync: true,
			Clock: clock.NewVirtual(workload.Epoch)})
		if err != nil {
			return 0, err
		}
		defer e.Close()
		if err := workload.DefineBase(e); err != nil {
			return 0, err
		}
		oids, err := workload.SeedStocks(e, 128)
		if err != nil {
			return 0, err
		}
		return runParallel(procs, dur, func(w int, stop *atomic.Bool) (int, error) {
			oid := oids[w%len(oids)]
			i := 0
			for !stop.Load() {
				i++
				tx := e.Begin()
				if err := e.Modify(tx, oid, map[string]datum.Value{
					"price": datum.Float(float64(i))}); err != nil {
					return i, err
				}
				if err := tx.Commit(); err != nil {
					return i, err
				}
			}
			return i, nil
		})
	}
}

// expC16 sweeps the smoke workloads across GOMAXPROCS 1 and 8, taking
// the best of three timed runs per cell to damp scheduler noise. The
// p8/p1 ratio is the scalability signal: under 1.0 means added
// concurrency helps, and the gap versus 1.0 is the serialization the
// sharded store still pays.
func expC16(quick bool) error {
	dur := 250 * time.Millisecond
	reps := 3
	if quick {
		dur = 80 * time.Millisecond
		reps = 2
	}
	workloads := []struct {
		name string
		run  func(procs int, dur time.Duration) (float64, error)
	}{
		{"read-get", smokeRead(0)},
		{"read-mixed", smokeRead(10)},
		{"commit-memory", smokeCommit(false)},
		{"commit-wal-nosync", smokeCommit(true)},
	}
	row("workload", "p1", "p8", "p8/p1")
	for _, wl := range workloads {
		best := map[int]float64{}
		for _, procs := range []int{1, 8} {
			for r := 0; r < reps; r++ {
				ns, err := wl.run(procs, dur)
				if err != nil {
					return fmt.Errorf("%s @%d procs: %w", wl.name, procs, err)
				}
				if best[procs] == 0 || ns < best[procs] {
					best[procs] = ns
				}
			}
			recordMetric(fmt.Sprintf("C16/%s/p%d", wl.name, procs), best[procs])
		}
		row(wl.name,
			time.Duration(best[1]).Round(time.Nanosecond),
			time.Duration(best[8]).Round(time.Nanosecond),
			fmt.Sprintf("%.2f", best[8]/best[1]))
	}
	return nil
}
