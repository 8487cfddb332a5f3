package main

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// metricDef names a metric and its unit. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json lists the same names and the
// test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are what a user of the system sees. Every one is measured on
// every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"fire_p50_us", "us"},
	{"cpu_s_per_kop", "s"},
	{"rss_retained_mb", "MiB"},
}

// perLayer come from the traced run. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	// Tails and single-workload user-facing numbers: real end-to-end
	// quantities that cannot carry a regression bound (too noisy on a
	// two-core sandbox, defined on one workload only, or 0 when the
	// system is healthy). README.md gives the reasons.
	{"op_p99_us", "us"},
	{"fire_p99_us", "us"},
	{"rss_peak_mb", "MiB"},
	{"failed_share", "ratio"},
	{"disk_bytes_per_commit", "B"},
	{"recovery_s", "s"},

	{"client.rtt_p50_us", "us"},
	{"server.request_p50_us", "us"},
	{"ipc.transport_p50_us", "us"},
	{"ipc.roundtrips_per_op", "count"},
	{"ipc.codec_ns", "ns"},

	{"txn.commit_p50_us", "us"},
	{"txn.begin_commit_ns", "ns"},
	{"lock.acquired_per_op", "count"},
	{"lock.waited_share", "ratio"},
	{"lock.deadlocks", "count"},
	{"lock.wait_p99_us", "us"},
	{"lock.acquire_release_ns", "ns"},

	{"object.modify_ns", "ns"},
	{"storage.puts_per_op", "count"},
	{"storage.gets_per_op", "count"},
	{"storage.get_ns", "ns"},
	{"storage.put_commit_ns", "ns"},
	{"storage.commit_stall_p99_us", "us"},
	{"storage.commit_shards_mean", "count"},
	{"storage.version_chain_len_p99", "count"},
	{"storage.versions_reclaimed_per_commit", "count"},
	{"storage.checkpoints", "count"},
	{"storage.checkpoint_ms_mean", "ms"},
	{"storage.delta_records_mean", "count"},
	{"storage.wal_bytes_reclaimed", "B"},

	{"wal.bytes_per_commit", "B"},
	{"wal.sync_requests_per_commit", "count"},
	{"wal.group_size_mean", "count"},
	{"wal.append_ns", "ns"},

	{"event.db_signals_per_op", "count"},
	{"event.emissions_per_signal", "count"},
	{"event.signal_p50_us", "us"},
	{"event.signal_ext_ns", "ns"},
	{"cep.firings_per_signal", "count"},
	{"cep.partials_p99", "count"},
	{"cep.instances", "count"},
	{"cep.expired_per_signal", "count"},
	{"cep.offer_ns", "ns"},

	{"cond.evaluations_per_signal", "count"},
	{"cond.shared_hit_share", "ratio"},
	{"cond.cache_hit_share", "ratio"},
	{"cond.eval_p50_us", "us"},
	{"cond.evaluate_ns", "ns"},
	{"rule.triggered_per_op", "count"},
	{"rule.satisfied_share", "ratio"},
	{"rule.separate_firings_per_op", "count"},
	{"rule.action_exec_p50_us", "us"},
	{"rule.async_errors", "count"},
	{"rule.fire_ns", "ns"},

	{"query.parse_ns", "ns"},
	{"plan.build_ns", "ns"},
	{"plan.execute_scan_ns_per_row", "ns"},
	{"plan.execute_join3_ms", "ms"},
	{"plan.execute_agg_ms", "ms"},
	{"plan.execute_index_us", "us"},
	{"plan.parallel_fanout_mean", "count"},
	{"plan.gather_wait_p99_us", "us"},
	{"storage.scans_per_op", "count"},
	{"storage.index_probes_per_op", "count"},
	{"storage.gets_per_row_returned", "count"},
	{"storage.snapshot_read_p50_us", "us"},
	{"btree.scan_ns_per_key", "ns"},
	{"btree.insert_ns", "ns"},

	{"core.allocs_per_op", "count"},
	{"core.gc_pause_ms", "ms"},
	{"core.heap_end_mb", "MiB"},
	{"bench.gen_lag_p99_us", "us"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.spans_dropped", "count"},

	// Self time of the benchmark's own spans, by the layer called.
	{"span.bench_self_share", "ratio"},
	{"span.txn_self_share", "ratio"},
	{"span.object_self_share", "ratio"},
	{"span.query_self_share", "ratio"},
	{"span.event_self_share", "ratio"},
	{"span.client_self_share", "ratio"},
	{"span.app_self_share", "ratio"},
}

// values is what one run measured, by metric name.
type values map[string]float64

// engineSnap is every counter the engine exposes, read at one instant.
type engineSnap struct {
	st  core.Stats
	obs obs.Snapshot
	mem runtime.MemStats
}

func snapEngine(e *core.Engine) engineSnap {
	s := engineSnap{st: e.Stats(), obs: e.Obs.Snapshot()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// histDelta is the histogram of the observations made between two
// snapshots.
func histDelta(a, b engineSnap, name string) obs.HistogramSnapshot {
	ha, hb := a.obs.Hist[name], b.obs.Hist[name]
	d := obs.HistogramSnapshot{Count: hb.Count - ha.Count, SumNS: hb.SumNS - ha.SumNS}
	for i := range d.Buckets {
		d.Buckets[i] = hb.Buckets[i] - ha.Buckets[i]
	}
	return d
}

// histQuantile reads a quantile off the engine's power-of-two buckets
// (bucket i holds [2^(i-1), 2^i) µs, or counts), placing the rank
// inside its bucket in proportion so the value is not pinned to a
// bucket edge.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := 0.0
	for i, b := range h.Buckets {
		if b == 0 {
			continue
		}
		if cum+float64(b) >= target {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Exp2(float64(i-1)), math.Exp2(float64(i))
			}
			return lo + (hi-lo)*(target-cum)/float64(b)
		}
		cum += float64(b)
	}
	return math.Exp2(float64(len(h.Buckets) - 2))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns the counter and histogram deltas between two
// snapshots of one engine into per-layer metrics. ops and commits are
// the user operations completed and the transactions the clients
// committed in between (the engine's own commit counter also counts
// every rule firing's transaction).
func counterMetrics(a, b engineSnap, ops, commits float64, out values) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	sa, sb := a.st, b.st
	topCommits := d(sa.Store.TopCommits, sb.Store.TopCommits)
	signals := d(sa.Rules.Signals, sb.Rules.Signals)
	extSignals := d(sa.Detectors.ExternalSignals, sb.Detectors.ExternalSignals)
	allSignals := d(sa.Detectors.DatabaseSignals, sb.Detectors.DatabaseSignals) + extSignals

	out["server.request_p50_us"] = histQuantile(histDelta(a, b, "ipc_request"), 0.5)
	out["ipc.roundtrips_per_op"] = ratio(float64(histDelta(a, b, "ipc_request").Count), ops)

	out["txn.commit_p50_us"] = histQuantile(histDelta(a, b, "txn_commit"), 0.5)
	acquired := d(sa.Locks.Acquired, sb.Locks.Acquired)
	out["lock.acquired_per_op"] = ratio(acquired, ops)
	out["lock.waited_share"] = ratio(d(sa.Locks.Waited, sb.Locks.Waited), acquired)
	out["lock.deadlocks"] = d(sa.Locks.Deadlocks, sb.Locks.Deadlocks)
	out["lock.wait_p99_us"] = histQuantile(histDelta(a, b, "lock_wait"), 0.99)

	out["storage.puts_per_op"] = ratio(d(sa.Store.Puts, sb.Store.Puts), ops)
	out["storage.gets_per_op"] = ratio(d(sa.Store.Gets, sb.Store.Gets), ops)
	out["storage.commit_stall_p99_us"] = histQuantile(histDelta(a, b, "commit_stall"), 0.99)
	out["storage.commit_shards_mean"] = histDelta(a, b, "commit_shards").MeanCount()
	out["storage.version_chain_len_p99"] = histQuantile(histDelta(a, b, "version_chain_len"), 0.99)
	out["storage.versions_reclaimed_per_commit"] = ratio(d(sa.Store.VersionsReclaimed, sb.Store.VersionsReclaimed), topCommits)
	out["storage.checkpoints"] = d(sa.Store.Checkpoints, sb.Store.Checkpoints)
	out["storage.checkpoint_ms_mean"] = float64(histDelta(a, b, "checkpoint").Mean()) / 1e6
	out["storage.delta_records_mean"] = histDelta(a, b, "delta_records").MeanCount()
	out["storage.wal_bytes_reclaimed"] = d(sa.Store.WALBytesReclaimed, sb.Store.WALBytesReclaimed)
	out["storage.scans_per_op"] = ratio(d(sa.Store.Scans, sb.Store.Scans), ops)
	out["storage.index_probes_per_op"] = ratio(d(sa.Store.IndexProbes, sb.Store.IndexProbes), ops)
	out["storage.snapshot_read_p50_us"] = histQuantile(histDelta(a, b, "snapshot_read"), 0.5)

	out["wal.bytes_per_commit"] = ratio(d(sa.Store.WALBytes, sb.Store.WALBytes), commits)
	out["wal.sync_requests_per_commit"] = ratio(d(sa.Store.WALSyncRequests, sb.Store.WALSyncRequests), commits)
	out["wal.group_size_mean"] = histDelta(a, b, "wal_group_size").MeanCount()

	out["event.db_signals_per_op"] = ratio(d(sa.Detectors.DatabaseSignals, sb.Detectors.DatabaseSignals), ops)
	out["event.emissions_per_signal"] = ratio(d(sa.Detectors.Emissions, sb.Detectors.Emissions), allSignals)
	out["event.signal_p50_us"] = histQuantile(histDelta(a, b, "signal"), 0.5)
	out["cep.firings_per_signal"] = ratio(d(sa.Detectors.CEPFirings, sb.Detectors.CEPFirings), extSignals)
	out["cep.partials_p99"] = histQuantile(histDelta(a, b, "cep_partials"), 0.99)
	out["cep.instances"] = float64(sb.Detectors.CEPInstances)
	out["cep.expired_per_signal"] = ratio(d(sa.Detectors.CEPExpired, sb.Detectors.CEPExpired), extSignals)

	evals := d(sa.Conditions.Evaluations, sb.Conditions.Evaluations)
	shared := d(sa.Conditions.SharedHits, sb.Conditions.SharedHits)
	cached := d(sa.Conditions.CacheHits, sb.Conditions.CacheHits)
	out["cond.evaluations_per_signal"] = ratio(evals, signals)
	out["cond.shared_hit_share"] = ratio(shared, evals+shared+cached)
	out["cond.cache_hit_share"] = ratio(cached, evals+shared+cached)
	out["cond.eval_p50_us"] = histQuantile(histDelta(a, b, "cond_eval"), 0.5)
	triggered := d(sa.Rules.Triggered, sb.Rules.Triggered)
	out["rule.triggered_per_op"] = ratio(triggered, ops)
	out["rule.satisfied_share"] = ratio(d(sa.Rules.ConditionsSatisfied, sb.Rules.ConditionsSatisfied), triggered)
	out["rule.separate_firings_per_op"] = ratio(d(sa.Rules.SeparateFirings, sb.Rules.SeparateFirings), ops)
	out["rule.action_exec_p50_us"] = histQuantile(histDelta(a, b, "action_exec"), 0.5)
	out["rule.async_errors"] = d(sa.Rules.AsyncErrors, sb.Rules.AsyncErrors)

	out["plan.parallel_fanout_mean"] = histDelta(a, b, "plan_parallel_fanout").MeanCount()
	out["plan.gather_wait_p99_us"] = histQuantile(histDelta(a, b, "plan_gather_wait"), 0.99)

	out["core.allocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), ops)
	out["core.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	out["core.heap_end_mb"] = float64(b.mem.HeapAlloc) / (1 << 20)
}

// spanMetrics turns the recorded spans into per-layer metrics.
func spanMetrics(out values) []span {
	spans, dropped := tr.recorded()
	selfTimes(spans)
	out["bench.spans_dropped"] = float64(dropped)
	for layer, share := range selfShares(spans) {
		out["span."+layer+"_self_share"] = share
	}
	return spans
}

// userMetrics fills in what a user of the system sees during the
// measured phase of res: throughput, latency of an operation and of a
// rule's action reaching the application, CPU cost and memory. It runs
// after the drain.
func userMetrics(out *outcome, res *segResult, fire []*recorder) {
	rate, p50 := windowed(res.ops, res.start, res.end, res.windows)
	out.set("ops_per_s", rate)
	out.set("op_p50_us", p50)
	_, f50 := windowed(fire, res.start, res.end, res.windows)
	out.set("fire_p50_us", f50)
	// Tails are read off the whole phase: a window of a few hundred
	// operations has too few samples beyond its 99th percentile.
	out.vals["op_p99_us"] = quantile(allLatencies(res.ops, res.start, res.end), 0.99)
	out.vals["fire_p99_us"] = quantile(allLatencies(fire, res.start, res.end), 0.99)
	out.set("cpu_s_per_kop", res.cpuPerKop(rate))
	out.vals["rss_peak_mb"] = res.rssPeakMB
	out.vals["rss_retained_mb"] = retainedMB()
}

// twoPhase is a run in two halves. The first is an open loop at a fixed
// rate below saturation: latencies and CPU cost come from it, because a
// queue's waiting time at saturation multiplies every change in the
// machine's speed, and a latency at a stated rate does not. The second
// is a closed loop, every load goroutine back to back: throughput comes
// from it, and the traced run records its spans and counters there,
// where tracing overhead shows as lost throughput.
type twoPhase struct {
	open, closed  *segResult
	fire          *recorder // actions delivered during the open loop
	before, after engineSnap
}

// runTwoPhase drives the two halves. fire is where the workload's
// handlers find the recorder for delivered actions; it is set only
// during the open loop.
func runTwoPhase(cfg runCfg, e *core.Engine, fire *atomic.Pointer[recorder],
	open []paced, closed []func() (int64, error)) twoPhase {

	half := cfg.seconds / 2
	tp := twoPhase{fire: newRecorder(nowNs(), 1<<18)}
	fire.Store(tp.fire)
	tp.open = segment{warm: cfg.warm, dur: half, windows: windowsFor(half), paced: open}.run()
	fire.Store(nil)

	warm, dur := cfg.phases(half)
	seg := segment{warm: warm, dur: dur, windows: windowsFor(dur), closed: closed}
	if cfg.trace {
		seg.atStart = func() { tp.before = snapEngine(e); tr.on.Store(true) }
		seg.atEnd = func() { tr.on.Store(false); tp.after = snapEngine(e) }
	}
	tp.closed = seg.run()
	return tp
}

// userMetrics fills in the end-to-end metrics of a two-phase run, after
// the drain.
func (tp twoPhase) userMetrics(out *outcome) {
	userMetrics(out, tp.open, []*recorder{tp.fire})
	rate, _ := windowed(tp.closed.ops, tp.closed.start, tp.closed.end, tp.closed.windows)
	out.set("ops_per_s", rate)
	if tp.closed.rssPeakMB > out.vals["rss_peak_mb"] {
		out.vals["rss_peak_mb"] = tp.closed.rssPeakMB
	}
	for _, res := range []*segResult{tp.open, tp.closed} {
		if err := res.st.firstErr; err != nil {
			out.problemf("an operation failed: %v", err)
		}
	}
}

func (tp twoPhase) attempted() int64 {
	return tp.open.st.attempted.Load() + tp.closed.st.attempted.Load()
}

func (tp twoPhase) failed() int64 {
	return tp.open.st.failed.Load() + tp.closed.st.failed.Load()
}

// completed counts the operations that finished inside [start,end).
func completed(recs []*recorder, start, end int64) float64 {
	return float64(len(allLatencies(recs, start, end)))
}

// traceMetrics fills in the per-layer metrics a traced phase yields
// without touching the engine again: counter deltas, span self times
// and what tracing cost.
func traceMetrics(out *outcome, res *segResult, before, after engineSnap, commits float64) []span {
	ops := completed(res.ops, res.start, res.end)
	counterMetrics(before, after, ops, commits, out.vals)
	spans := spanMetrics(out.vals)
	out.vals["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	// The untraced reference is the stretch of the same load just
	// before the spans were switched on.
	ref := (res.end - res.start) / 2
	untraced := completed(res.ops, res.start-ref, res.start) / float64(ref)
	traced := ops / float64(res.end-res.start)
	out.vals["bench.trace_overhead_share"] = 1 - ratio(traced, untraced)
	return spans
}
