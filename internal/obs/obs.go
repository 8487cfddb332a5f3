// Package obs is the engine's observability subsystem: lock-free
// latency histograms for the hot paths (operations, condition
// evaluations, action executions, WAL syncs, lock waits) and a
// structured firing-tree tracer that records each event signal's
// rule processing as a span tree mirroring the nested-transaction
// tree of §3 of the paper. Everything is snapshot-on-read: writers
// touch only atomics (histograms) or per-span state (tracer), readers
// materialize consistent copies.
//
// The package depends only on the standard library so every layer of
// the engine can import it without cycles. All entry points are
// nil-receiver-safe and gated on an enabled flag, so instrumented
// components work unobserved (unit tests, disabled deployments) at
// the cost of a single atomic load per site.
package obs

import (
	"log"
	"time"
)

// HistID names one of the fixed latency histograms.
type HistID int

// The instrumented code paths.
const (
	// HOp: one engine data operation (create/modify/delete/get/query).
	HOp HistID = iota
	// HTxnCommit: commit processing of a top-level user transaction,
	// including deferred rule firings (§6.3).
	HTxnCommit
	// HSignal: rule processing of one emitted event signal (§6.2), as
	// seen by the suspended trigger — dispatch through return.
	HSignal
	// HCondEval: one condition-graph node evaluation (§5.5).
	HCondEval
	// HActionExec: one rule action execution (all steps, all rows).
	HActionExec
	// HWALSync: one WAL fsync.
	HWALSync
	// HLockWait: time a lock request spent blocked before grant or
	// refusal.
	HLockWait
	// HIPCRequest: one server-side ipc request, dispatch to reply.
	HIPCRequest
	// HCommitStall: time a durable commit spent waiting for its log
	// record to become durable (append through group-flush wakeup).
	HCommitStall
	// HWALGroup: the number of commits amortized by one WAL group
	// flush. A count histogram: record via ObserveN, read via
	// HistogramSnapshot counts (not durations).
	HWALGroup
	// HCheckpoint: one fuzzy checkpoint, scan through WAL truncation.
	HCheckpoint
	// HWALReclaimed: WAL bytes reclaimed by one checkpoint truncation.
	// A count histogram like HWALGroup.
	HWALReclaimed
	// HDeltaRecords: records written by one delta checkpoint — the
	// "d" in the O(d) incremental-snapshot claim. A count histogram
	// like HWALGroup.
	HDeltaRecords
	// HCEPPartials: open partial matches in a cep template after one
	// constituent offer — the live-state pressure of the composite
	// event runtime. A count histogram like HWALGroup.
	HCEPPartials
	// HCEPInstances: live correlation-key NFA instances in a cep
	// template, observed at each GC sweep. A count histogram like
	// HWALGroup.
	HCEPInstances
	// HVersionChain: committed version-chain length after one install —
	// the MVCC garbage-collection pressure. A count histogram like
	// HWALGroup.
	HVersionChain
	// HSnapshotRead: one snapshot class scan (pin through last record
	// resolved), the lock-free MVCC read path. The scan streams, so the
	// caller's per-row callback runs inside the interval.
	HSnapshotRead
	// HReplBatch: redo-payload bytes shipped in one replication batch
	// frame. A count histogram like HWALGroup.
	HReplBatch
	// HReplLag: replication apply lag for one shipped batch — primary
	// send timestamp to follower apply completion, as observed by the
	// follower (meaningful when both share a clock).
	HReplLag
	// HPlanFanout: worker count of one parallel plan stage (scan,
	// join, or aggregate fan-out). A count histogram like HWALGroup.
	HPlanFanout
	// HPlanGatherWait: gather-stage skew of one parallel plan stage —
	// the gap between the first and last worker finishing, i.e. how
	// long the gather node idles on stragglers.
	HPlanGatherWait
	// HIPCMessage: payload bytes of one message a server's connection
	// read or wrote. A count histogram like HWALGroup.
	HIPCMessage
	// HFiringQueueWait: time a detached (separate-coupled) firing spent
	// in the rule manager's FIFO, enqueue through worker pickup.
	HFiringQueueWait

	numHists
)

var histNames = [numHists]string{
	"op", "txn_commit", "signal", "cond_eval",
	"action_exec", "wal_sync", "lock_wait", "ipc_request",
	"commit_stall", "wal_group_size",
	"checkpoint", "wal_bytes_reclaimed", "delta_records",
	"cep_partials", "cep_instances",
	"version_chain_len", "snapshot_read",
	"repl_batch_bytes", "repl_lag",
	"plan_parallel_fanout", "plan_gather_wait",
	"ipc_message_bytes", "firing_queue_wait",
}

// histIsCount marks histograms whose observations are counts recorded
// via ObserveN, not durations.
var histIsCount = [numHists]bool{HWALGroup: true, HWALReclaimed: true, HDeltaRecords: true,
	HCEPPartials: true, HCEPInstances: true, HVersionChain: true,
	HReplBatch: true, HPlanFanout: true, HIPCMessage: true}

// HistIsCount reports whether the named histogram holds counts
// (ObserveN units) rather than latencies; renderers should print its
// mean and quantiles as plain numbers.
func HistIsCount(name string) bool {
	for id, n := range histNames {
		if n == name {
			return histIsCount[id]
		}
	}
	return false
}

// Options configures an Obs. The zero value means enabled with
// default trace capacity and no slow-firing log.
type Options struct {
	// Disabled turns all recording off; every instrumentation site
	// then costs one atomic load.
	Disabled bool
	// TraceCapacity is the firing-tree ring-buffer size (finished
	// root spans retained). 0 means DefaultTraceCapacity.
	TraceCapacity int
	// SlowFiring, when >0, logs any finished root span whose duration
	// meets or exceeds it, and counts it in the snapshot.
	SlowFiring time.Duration
	// Logf receives slow-firing reports; nil means the standard
	// logger.
	Logf func(format string, args ...any)
}

// DefaultTraceCapacity is the trace ring size when Options leaves it
// zero.
const DefaultTraceCapacity = 256

// Obs bundles the metrics and the tracer. Methods are safe on a nil
// receiver (everything reads as disabled).
type Obs struct {
	metrics *Metrics
	tracer  *Tracer
}

// New builds an Obs per opts. The result and both components are
// always non-nil; Disabled only gates recording.
func New(opts Options) *Obs {
	capacity := opts.TraceCapacity
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	m := &Metrics{}
	tr := &Tracer{capacity: capacity, slow: opts.SlowFiring, logf: logf}
	if !opts.Disabled {
		m.on.Store(true)
		tr.on.Store(true)
	}
	return &Obs{metrics: m, tracer: tr}
}

// Metrics returns the histogram set (nil from a nil Obs).
func (o *Obs) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Tracer returns the firing-tree tracer (nil from a nil Obs).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Enabled reports whether recording is on.
func (o *Obs) Enabled() bool { return o != nil && o.metrics.On() }

// Snapshot is a consistent, JSON-friendly copy of all observability
// state, served over ipc and rendered by the CLI and the Prometheus
// endpoint.
type Snapshot struct {
	Enabled       bool                         `json:"enabled"`
	Hist          map[string]HistogramSnapshot `json:"hist"`
	SlowFirings   uint64                       `json:"slowFirings"`
	TraceRecorded uint64                       `json:"traceRecorded"`
	TraceDropped  uint64                       `json:"traceDropped"`
	TraceCapacity int                          `json:"traceCapacity"`
}

// Snapshot materializes the current state.
func (o *Obs) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Enabled: o.metrics.On(),
		Hist:    make(map[string]HistogramSnapshot, numHists),
	}
	for id := HistID(0); id < numHists; id++ {
		s.Hist[histNames[id]] = o.metrics.hist[id].Snapshot()
	}
	s.SlowFirings = o.tracer.slowCount.Load()
	s.TraceRecorded, s.TraceDropped, s.TraceCapacity = o.tracer.counts()
	return s
}
