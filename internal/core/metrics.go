package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// WritePrometheus renders the engine's counters and the observability
// subsystem's histograms in the Prometheus text exposition format.
// hipacd serves it on the optional -metrics listener.
func (e *Engine) WritePrometheus(w io.Writer) error {
	s := e.Stats()
	series := []obs.Series{
		obs.Counter("hipac_store_puts_total", s.Store.Puts),
		obs.Counter("hipac_store_gets_total", s.Store.Gets),
		obs.Counter("hipac_store_scans_total", s.Store.Scans),
		obs.Counter("hipac_store_rows_scanned_total", s.Store.RowsScanned),
		obs.Counter("hipac_store_index_probes_total", s.Store.IndexProbes),
		obs.Counter("hipac_store_top_commits_total", s.Store.TopCommits),
		obs.Counter("hipac_store_wal_bytes_total", s.Store.WALBytes),
		obs.Counter("hipac_store_wal_fsyncs_total", s.Store.WALFsyncs),
		obs.Counter("hipac_store_wal_sync_requests_total", s.Store.WALSyncRequests),
		obs.Counter("hipac_locks_acquired_total", s.Locks.Acquired),
		obs.Counter("hipac_locks_waited_total", s.Locks.Waited),
		obs.Counter("hipac_locks_deadlocks_total", s.Locks.Deadlocks),
		obs.Counter("hipac_event_database_signals_total", s.Detectors.DatabaseSignals),
		obs.Counter("hipac_event_external_signals_total", s.Detectors.ExternalSignals),
		obs.Counter("hipac_event_temporal_firings_total", s.Detectors.TemporalFirings),
		obs.Counter("hipac_event_emissions_total", s.Detectors.Emissions),
		obs.Counter("hipac_cond_evaluations_total", s.Conditions.Evaluations),
		obs.Counter("hipac_cond_shared_hits_total", s.Conditions.SharedHits),
		obs.Counter("hipac_cond_plan_builds_total", s.Conditions.PlanBuilds),
		obs.Counter("hipac_rule_signals_total", s.Rules.Signals),
		obs.Counter("hipac_rule_triggered_total", s.Rules.Triggered),
		obs.Counter("hipac_rule_filtered_total", s.Rules.Filtered),
		obs.Counter("hipac_rule_immediate_firings_total", s.Rules.ImmediateFirings),
		obs.Counter("hipac_rule_deferred_firings_total", s.Rules.DeferredFirings),
		obs.Counter("hipac_rule_separate_firings_total", s.Rules.SeparateFirings),
		obs.Counter("hipac_rule_conditions_satisfied_total", s.Rules.ConditionsSatisfied),
		obs.Counter("hipac_rule_actions_executed_total", s.Rules.ActionsExecuted),
		obs.Counter("hipac_rule_async_errors_total", s.Rules.AsyncErrors),
		obs.Counter("hipac_rule_cascade_aborted_total", s.Rules.CascadeAborted),
		obs.Counter("hipac_rule_firing_queued_total", s.Rules.Queued),
		obs.Counter("hipac_rule_firing_overflow_total", s.Rules.Overflowed),
		obs.Counter("hipac_cep_firings_total", s.Detectors.CEPFirings),
		obs.Counter("hipac_cep_expired_partials_total", s.Detectors.CEPExpired),
		obs.Counter("hipac_store_version_gc_runs_total", s.Store.GCRuns),
		obs.Counter("hipac_store_versions_gc_reclaimed_total", s.Store.VersionsReclaimed),
		obs.Gauge("hipac_live_txns", uint64(s.LiveTxns)),
		// Detached firings waiting for a firing worker.
		obs.Gauge("hipac_rule_firing_queue_depth", uint64(s.Rules.QueueDepth)),
		// Interned row shapes: a few per class; growth with the write
		// count means rows stopped sharing them.
		obs.Gauge("hipac_store_shapes", uint64(s.Store.Shapes)),
		// MVCC read-path gauges: the published commit frontier, the
		// version-GC watermark (their gap = snapshot lag), and the
		// pinned snapshot population holding that watermark back.
		obs.Gauge("hipac_store_published_lsn", s.Store.PublishedLSN),
		obs.Gauge("hipac_store_oldest_snapshot_lsn", s.Store.OldestSnapshotLSN),
		obs.Gauge("hipac_store_live_snapshots", uint64(s.Store.LiveSnapshots)),
		// Composite-event runtime gauges: template count plus the live
		// NFA-instance and partial-match populations (bounded-memory
		// evidence under sustained streams).
		obs.Gauge("hipac_cep_templates", uint64(s.Detectors.CEPTemplates)),
		obs.Gauge("hipac_cep_instances", uint64(s.Detectors.CEPInstances)),
		obs.Gauge("hipac_cep_partials", uint64(s.Detectors.CEPPartials)),
	}
	if err := obs.WriteSeries(w, series); err != nil {
		return err
	}
	// Per-rule firing counters (cardinality-bounded at the source:
	// rule.MaxFiringCounters names, overflow folded into one series).
	if len(s.Rules.RuleFirings) > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE hipac_rule_firings_total counter\n"); err != nil {
			return err
		}
		names := make([]string, 0, len(s.Rules.RuleFirings))
		for name := range s.Rules.RuleFirings {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := fmt.Fprintf(w, "hipac_rule_firings_total{rule=%q} %d\n", name, s.Rules.RuleFirings[name]); err != nil {
				return err
			}
		}
	}
	return obs.WritePrometheus(w, e.Obs.Snapshot(), "hipac")
}
