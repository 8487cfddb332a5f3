package repl

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// WritePrometheus renders the primary's shipping counters in the
// Prometheus text format. hipacd appends it to the engine's exposition
// when -repl-listen is set; the repl_batch_bytes histogram itself
// flows through the engine's shared obs snapshot.
func (p *Primary) WritePrometheus(w io.Writer) error {
	st := p.Status()
	rows := []struct {
		name, typ string
		value     uint64
	}{
		{"hipac_repl_connections", "gauge", uint64(st.Connections)},
		{"hipac_repl_flushed_lsn", "gauge", st.FlushedLSN},
		{"hipac_repl_batches_shipped_total", "counter", st.Batches},
		{"hipac_repl_resyncs_total", "counter", st.Bootstraps},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", r.name, r.typ, r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the replica's lag gauges, catchup counters,
// store stats, and histograms (including repl_lag) in the Prometheus
// text format. hipacd serves it on the -metrics listener in replica
// mode.
func (r *Replica) WritePrometheus(w io.Writer) error {
	st := r.Status()
	rows := []struct {
		name, typ string
		value     uint64
	}{
		{"hipac_repl_applied_lsn", "gauge", st.AppliedLSN},
		{"hipac_repl_primary_flushed_lsn", "gauge", st.FlushedLSN},
		{"hipac_repl_lag_bytes", "gauge", st.LagBytes},
		{"hipac_repl_lag_nanos", "gauge", uint64(st.LagNanos)},
		{"hipac_repl_generation", "gauge", uint64(st.Generation)},
		{"hipac_repl_batches_applied_total", "counter", st.Batches},
		{"hipac_repl_reconnects_total", "counter", st.Reconnects},
		{"hipac_repl_bootstraps_total", "counter", st.Bootstraps},
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", row.name, row.typ, row.name, row.value); err != nil {
			return err
		}
	}
	if store := r.Store(); store != nil {
		s := store.Stats()
		gauges := []struct {
			name  string
			value uint64
		}{
			{"hipac_store_published_lsn", s.PublishedLSN},
			{"hipac_store_oldest_snapshot_lsn", s.OldestSnapshotLSN},
			{"hipac_store_live_snapshots", uint64(s.LiveSnapshots)},
			{"hipac_store_gets_total", s.Gets},
			{"hipac_store_scans_total", s.Scans},
			{"hipac_store_rows_scanned_total", s.RowsScanned},
			{"hipac_store_shapes", uint64(s.Shapes)},
		}
		for _, g := range gauges {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.value); err != nil {
				return err
			}
		}
	}
	return obs.WritePrometheus(w, r.o.Snapshot(), "hipac")
}
