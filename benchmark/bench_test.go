package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json as the driver's contract shapes it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the metric
// tables in metrics.go together, and both inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bf := readBenchmarkJSON(t)
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("%s metric %s (%s) in BENCHMARK.json, %s (%s) in metrics.go", kind, name, unit, def.name, def.unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("%s metric %q with unit %q breaks the naming rules", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, metrics.go %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check("end-to-end", m.Name, m.Unit, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s has bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s in s, lower is better")
	}
	for i, m := range bf.PerLayer {
		check("per-layer", m.Name, m.Unit, perLayer[i])
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the benchmark", w.Name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming rules", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestWorkloadsRun runs every workload for one 300 ms window with the
// output checks on, untraced and traced, and requires each metric of
// the mode to be printed exactly once, with its unit, in the listing
// and in the result line.
func TestWorkloadsRun(t *testing.T) {
	tr.buf = make([]span, 1<<16)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := runCfg{seed: 7, seconds: 300 * time.Millisecond, warm: 100 * time.Millisecond,
					trace: trace, dir: t.TempDir(), maxSetups: 1, recoveryTail: 200}
				tr.n.Store(0)
				out, err := runWorkload(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range out.problems {
					t.Errorf("output check: %s", p)
				}
				if out.failed != 0 || out.attempted < 1 {
					t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
				}
				var buf bytes.Buffer
				if code := printOutcome(&buf, name, cfg, out); code != 0 {
					t.Errorf("exit code %d", code)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("result line: %v", err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("result line has %d metrics, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s: in result line %v with unit %q, want unit %q", d.name, ok, m.Unit, d.unit)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s is %v, must never be 0", d.name, m.Value)
					}
					listed := 0
					for _, l := range lines[:len(lines)-1] {
						if f := strings.Fields(l); len(f) > 2 && f[0] == d.name && f[len(f)-1] == d.unit {
							listed++
						}
					}
					if listed != 1 {
						t.Errorf("%s is listed %d times, want once", d.name, listed)
					}
				}
			})
		}
	}
}

// sampleInputs renders the first n inputs each workload's generators
// draw from a seed.
func sampleInputs(seed int64, n int) []byte {
	var b bytes.Buffer
	for c := 0; c < loadGoroutines; c++ {
		sg, rg, ag, cg := newSaaGen(seed, c), newRemoteGen(seed, c), newAnalyticGen(seed, c), newCepGen(seed, c)
		for i := 0; i < n; i++ {
			stock, price := sg.next()
			fmt.Fprintln(&b, "saa", c, stock, price)
			op, key, p := rg.next()
			fmt.Fprintln(&b, "remote", c, op, key, p)
			fmt.Fprintln(&b, "analytic", c, ag.queryArgs())
			from, to, qty := ag.transfer()
			fmt.Fprintln(&b, "analytic", c, from, to, qty)
			local, confirm, cp := cg.next()
			fmt.Fprintln(&b, "cep", c, local, confirm, cp)
		}
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, again, other := sampleInputs(3, 500), sampleInputs(3, 500), sampleInputs(4, 500)
	if !bytes.Equal(a, again) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds gave the same inputs")
	}
}

// TestQuartilesFollowPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesFollowPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 100},
		{Name: "txn.begin", Parent: 0, Start: 10, End: 30},
		{Name: "txn.commit", Parent: 0, Start: 25, End: 60},   // overlaps the first child
		{Name: "app.handler", Parent: 0, Start: 90, End: 150}, // outlives the parent
	}
	selfTimes(spans)
	if got := spans[0].Self; got != 100-50-10 {
		t.Errorf("root self time %d, want 40", got)
	}
	if got := spans[3].Self; got != 60 {
		t.Errorf("handler self time %d, want 60", got)
	}
	shares := selfShares(spans)
	if got := shares["txn"]; got != float64(20+35)/float64(40+20+35+60) {
		t.Errorf("txn share %v", got)
	}
}
