package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the agreement check
// reads: each end-to-end metric's regression bound.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// maxGenLagUs is the generator lateness beyond which an open-loop
// latency measures the generator and the run is refused. The senders
// share the Go scheduler with the in-process engine, and when every P
// is busy a sleeping goroutine's timer fires up to about a millisecond
// late, which puts the 99th percentile at 1.1 to 1.2 ms on this box
// whatever the load; twice that means the generator itself fell behind.
const maxGenLagUs = 2000

// runAgree runs every workload twice untraced, each run a process of
// its own so that memory peaks do not leak between them, and compares
// every end-to-end metric of the pair against its bound. A third,
// traced run supplies the generator lateness. It returns the exit code.
func runAgree(seed int64, seconds float64) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -agree runs from the root of the checkout:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	child := func(workload string, trace int) (*report, error) {
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		var last []byte
		for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
			last = append(last[:0], sc.Bytes()...)
		}
		var rep report
		if err := json.Unmarshal(last, &rep); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", workload, err)
		}
		return &rep, nil
	}

	code := 0
	fmt.Printf("%-16s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, w := range bf.Workloads {
		var pair [2]*report
		for i := range pair {
			if pair[i], err = child(w.Name, 0); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := pair[0].Metrics[m.Name].Value, pair[1].Metrics[m.Name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > m.Bound {
				verdict = "  OUTSIDE ITS BOUND"
				code = 1
			}
			fmt.Printf("%-16s %-16s %14.4f %14.4f %9.4f %7.2f%s\n", w.Name, m.Name, a, b, diff, m.Bound, verdict)
		}
		traced, err := child(w.Name, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if lag := traced.Metrics["bench.gen_lag_p99_us"].Value; lag > maxGenLagUs {
			fmt.Printf("%-16s refused: bench.gen_lag_p99_us is %.1f us, so the open-loop latencies measure the generator\n", w.Name, lag)
			code = 1
		}
	}
	return code
}
