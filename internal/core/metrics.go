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
	counters := []struct {
		name  string
		value uint64
	}{
		{"hipac_store_puts_total", s.Store.Puts},
		{"hipac_store_gets_total", s.Store.Gets},
		{"hipac_store_scans_total", s.Store.Scans},
		{"hipac_store_rows_scanned_total", s.Store.RowsScanned},
		{"hipac_store_index_probes_total", s.Store.IndexProbes},
		{"hipac_store_top_commits_total", s.Store.TopCommits},
		{"hipac_store_wal_bytes_total", s.Store.WALBytes},
		{"hipac_store_wal_fsyncs_total", s.Store.WALFsyncs},
		{"hipac_store_wal_sync_requests_total", s.Store.WALSyncRequests},
		{"hipac_locks_acquired_total", s.Locks.Acquired},
		{"hipac_locks_waited_total", s.Locks.Waited},
		{"hipac_locks_deadlocks_total", s.Locks.Deadlocks},
		{"hipac_event_database_signals_total", s.Detectors.DatabaseSignals},
		{"hipac_event_external_signals_total", s.Detectors.ExternalSignals},
		{"hipac_event_temporal_firings_total", s.Detectors.TemporalFirings},
		{"hipac_event_emissions_total", s.Detectors.Emissions},
		{"hipac_cond_evaluations_total", s.Conditions.Evaluations},
		{"hipac_cond_shared_hits_total", s.Conditions.SharedHits},
		{"hipac_cond_plan_builds_total", s.Conditions.PlanBuilds},
		{"hipac_rule_signals_total", s.Rules.Signals},
		{"hipac_rule_triggered_total", s.Rules.Triggered},
		{"hipac_rule_filtered_total", s.Rules.Filtered},
		{"hipac_rule_immediate_firings_total", s.Rules.ImmediateFirings},
		{"hipac_rule_deferred_firings_total", s.Rules.DeferredFirings},
		{"hipac_rule_separate_firings_total", s.Rules.SeparateFirings},
		{"hipac_rule_conditions_satisfied_total", s.Rules.ConditionsSatisfied},
		{"hipac_rule_actions_executed_total", s.Rules.ActionsExecuted},
		{"hipac_rule_async_errors_total", s.Rules.AsyncErrors},
		{"hipac_rule_cascade_aborted_total", s.Rules.CascadeAborted},
		{"hipac_rule_firing_queued_total", s.Rules.Queued},
		{"hipac_rule_firing_overflow_total", s.Rules.Overflowed},
		{"hipac_cep_firings_total", s.Detectors.CEPFirings},
		{"hipac_cep_expired_partials_total", s.Detectors.CEPExpired},
		{"hipac_store_version_gc_runs_total", s.Store.GCRuns},
		{"hipac_store_versions_gc_reclaimed_total", s.Store.VersionsReclaimed},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.value); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE hipac_live_txns gauge\nhipac_live_txns %d\n", s.LiveTxns); err != nil {
		return err
	}
	// Detached firings waiting for a firing worker.
	if _, err := fmt.Fprintf(w, "# TYPE hipac_rule_firing_queue_depth gauge\nhipac_rule_firing_queue_depth %d\n", s.Rules.QueueDepth); err != nil {
		return err
	}
	// Interned row shapes: a few per class; growth with the write count
	// means rows stopped sharing them.
	if _, err := fmt.Fprintf(w, "# TYPE hipac_store_shapes gauge\nhipac_store_shapes %d\n", s.Store.Shapes); err != nil {
		return err
	}
	// MVCC read-path gauges: the published commit frontier, the
	// version-GC watermark (their gap = snapshot lag), and the pinned
	// snapshot population holding that watermark back.
	mvccGauges := []struct {
		name  string
		value uint64
	}{
		{"hipac_store_published_lsn", s.Store.PublishedLSN},
		{"hipac_store_oldest_snapshot_lsn", s.Store.OldestSnapshotLSN},
		{"hipac_store_live_snapshots", uint64(s.Store.LiveSnapshots)},
	}
	for _, g := range mvccGauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.value); err != nil {
			return err
		}
	}
	// Composite-event runtime gauges: template count plus the live
	// NFA-instance and partial-match populations (bounded-memory
	// evidence under sustained streams).
	cepGauges := []struct {
		name  string
		value int
	}{
		{"hipac_cep_templates", s.Detectors.CEPTemplates},
		{"hipac_cep_instances", s.Detectors.CEPInstances},
		{"hipac_cep_partials", s.Detectors.CEPPartials},
	}
	for _, g := range cepGauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.value); err != nil {
			return err
		}
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
