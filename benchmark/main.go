// Command benchmark is the repository's performance benchmark: four
// workloads derived from the paper's Securities Analyst's Assistant
// (§4.2), each built so that a different group of the engine's layers
// does most of the work. One run drives one workload for a fixed time,
// checks the outputs, and prints every metric by name with its unit; the
// last line of standard output is the result as one JSON object. See
// README.md for why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// loadGoroutines is fixed: the sandbox has two cores, and a count that
// followed the machine would make runs on different machines different
// benchmarks. The machine's shape is printed, not adapted to.
const loadGoroutines = 2

// runCfg is what one run of one workload is given.
type runCfg struct {
	seed    int64
	seconds time.Duration // measured time
	warm    time.Duration // load applied before measuring starts
	trace   bool
	dir     string // scratch directory inside the checkout, removed after
	// maxSetups caps how often the workload is set up; setup_s is the
	// median.
	maxSetups int
	// recoveryTail is how many commits saa_pipeline's timed recovery
	// replays.
	recoveryTail int
}

// phases splits a stretch of measured time. An untraced run measures
// all of it. A traced run leaves the first third untraced, as the
// reference that bench.trace_overhead_share compares against, and
// records spans and counters over the rest.
func (c runCfg) phases(total time.Duration) (warm, dur time.Duration) {
	if !c.trace {
		return c.warm, total
	}
	return c.warm + total/3, total - total/3
}

// outcome is what a workload measured.
type outcome struct {
	vals      values
	dists     map[string]dist // per-window detail of the windowed metrics
	attempted int64           // operations issued plus rule actions expected
	failed    int64           // operations that erred plus actions not delivered
	problems  []string        // output checks that did not hold
}

func newOutcome() *outcome {
	return &outcome{vals: values{}, dists: map[string]dist{}}
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// asyncErrors turns what the engine's asynchronous work (separate rule
// firings, background checkpoints) reported into failed checks.
func (o *outcome) asyncErrors(e *core.Engine) {
	for _, err := range e.AsyncErrors() {
		o.problemf("asynchronous rule processing failed: %v", err)
	}
}

func (o *outcome) set(name string, d dist) {
	o.vals[name] = d.Median
	o.dists[name] = d
}

// workload is one of the benchmark's four.
type workload interface {
	// setup opens the engine, loads the data and creates the rules.
	setup(cfg runCfg) error
	// run applies the load, drains, checks the outputs and measures.
	run(cfg runCfg) (*outcome, error)
	close()
}

var workloads = map[string]func() workload{
	"saa_pipeline":   func() workload { return &saaWorkload{} },
	"remote_oltp":    func() workload { return &remoteWorkload{} },
	"analytic_query": func() workload { return &analyticWorkload{} },
	"cep_stream":     func() workload { return &cepWorkload{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A set-up of a tenth of a second does not repeat within a quarter, so
// a run sets the workload up again and again, at least minSetups times
// and until setupBudget has been spent or the cap is reached, and
// reports the median.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
)

// runWorkload sets the workload up, runs it, and then sets it up again
// several times for setup_s. The repeats come after the run so that the
// run's memory figures see one engine only: a closed engine is not
// fully released (its detectors keep a sweep timer).
func runWorkload(name string, cfg runCfg) (*outcome, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	base := cfg.dir
	var times []float64
	var spent time.Duration
	setUp := func() (workload, error) {
		cfg.dir = filepath.Join(base, fmt.Sprintf("setup%d", len(times)))
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, err
		}
		w := mk()
		t := time.Now()
		if err := w.setup(cfg); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		spent += time.Since(t)
		times = append(times, time.Since(t).Seconds())
		return w, nil
	}
	w, err := setUp()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	out, err := w.run(cfg)
	w.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for len(times) < cfg.maxSetups && (len(times) < minSetups || spent < setupBudget) {
		runtime.GC()
		w, err := setUp()
		if err != nil {
			return nil, err
		}
		w.close()
	}
	_, out.vals["setup_s"], _ = quartiles(times)
	return out, nil
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: one of saa_pipeline, remote_oltp, analytic_query, cep_stream")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics; 0 prints the end-to-end metrics")
	spansOut := flag.String("spans", "", "with -trace 1, also write the recorded spans to this file as JSON")
	agree := flag.Bool("agree", false, "run every workload twice and compare each end-to-end metric against its bound")
	flag.Parse()

	if *agree {
		os.Exit(runAgree(*seed, *seconds))
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -workload is required; have", workloadNames())
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(scratchRoot(), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	cfg := runCfg{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		warm:      2 * time.Second,
		trace:     *trace == 1,
		dir:       dir,
		maxSetups: maxSetups,

		recoveryTail: saaRecoveryTail,
	}
	if cfg.trace {
		tr.buf = make([]span, maxSpans)
	}
	out, err := runWorkload(*name, cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *spansOut != "" && cfg.trace {
		if err := writeSpans(*spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	os.Exit(printOutcome(os.Stdout, *name, cfg, out))
}

// scratchRoot is where runs keep their files: .bench_build in the
// working directory, which the wrapper makes the root of the checkout.
func scratchRoot() string {
	root := ".bench_build"
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	return root
}

// printOutcome lists every metric of the run by name with its unit,
// then the result line, and returns the exit code.
func printOutcome(w io.Writer, name string, cfg runCfg, out *outcome) int {
	fmt.Fprintf(w, "workload %s seed %d seconds %.1f trace %v\n", name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(w, "machine nproc=%d GOMAXPROCS=%d %s load_goroutines=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), loadGoroutines)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := out.vals[d.name]
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if dd, ok := out.dists[d.name]; ok {
			fmt.Fprintf(w, "%-40s %s %s\n", d.name, fmtDist(dd), d.unit)
		} else {
			fmt.Fprintf(w, "%-40s %.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func writeSpans(path string) error {
	spans, _ := tr.recorded()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
