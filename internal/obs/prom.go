package obs

import (
	"fmt"
	"io"
	"strconv"
)

// Series is one unlabelled Prometheus sample: its name, its type
// ("counter" or "gauge") and its value.
type Series struct {
	Name, Type string
	Value      uint64
}

// Counter and Gauge build a Series of their type.
func Counter(name string, v uint64) Series { return Series{name, "counter", v} }
func Gauge(name string, v uint64) Series   { return Series{name, "gauge", v} }

// WriteSeries renders each series as a TYPE line and its one sample,
// in the order given.
func WriteSeries(w io.Writer, series []Series) error {
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", s.Name, s.Type, s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders a Snapshot in the Prometheus text
// exposition format. Each histogram becomes
// <prefix>_<name>_duration_seconds with cumulative le buckets; the
// trace counters become <prefix>_*_total gauges/counters. prefix is
// typically "hipac".
func WritePrometheus(w io.Writer, s Snapshot, prefix string) error {
	for id, name := range histNames {
		h, ok := s.Hist[name]
		if !ok {
			continue
		}
		// Count histograms (e.g. group-commit batch size) expose raw
		// units; latency histograms expose seconds.
		isCount := histIsCount[id]
		metric := fmt.Sprintf("%s_%s_duration_seconds", prefix, name)
		if isCount {
			metric = fmt.Sprintf("%s_%s", prefix, name)
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", metric); err != nil {
			return err
		}
		var cum uint64
		for i := 0; i < NumBuckets; i++ {
			cum += h.Buckets[i]
			le := "+Inf"
			if i < NumBuckets-1 {
				if isCount {
					le = strconv.FormatUint(BucketUpperMicros(i), 10)
				} else {
					le = strconv.FormatFloat(float64(BucketUpperMicros(i))/1e6, 'g', -1, 64)
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", metric, le, cum); err != nil {
				return err
			}
		}
		sum := float64(h.SumNS) / 1e9
		if isCount {
			sum = float64(h.SumNS) / 1e3 // ObserveN stores units as µs
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", metric,
			strconv.FormatFloat(sum, 'g', -1, 64), metric, h.Count); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"# TYPE %[1]s_slow_firings_total counter\n%[1]s_slow_firings_total %[2]d\n"+
			"# TYPE %[1]s_traces_recorded_total counter\n%[1]s_traces_recorded_total %[3]d\n"+
			"# TYPE %[1]s_traces_dropped_total counter\n%[1]s_traces_dropped_total %[4]d\n",
		prefix, s.SlowFirings, s.TraceRecorded, s.TraceDropped)
	return err
}
