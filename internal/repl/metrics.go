package repl

import (
	"io"

	"repro/internal/obs"
)

// WritePrometheus renders the primary's shipping counters in the
// Prometheus text format. hipacd appends it to the engine's exposition
// when -repl-listen is set; the repl_batch_bytes histogram itself
// flows through the engine's shared obs snapshot.
func (p *Primary) WritePrometheus(w io.Writer) error {
	st := p.Status()
	return obs.WriteSeries(w, []obs.Series{
		obs.Gauge("hipac_repl_connections", uint64(st.Connections)),
		obs.Gauge("hipac_repl_flushed_lsn", st.FlushedLSN),
		obs.Counter("hipac_repl_batches_shipped_total", st.Batches),
		obs.Counter("hipac_repl_resyncs_total", st.Bootstraps),
	})
}

// WritePrometheus renders the replica's lag gauges, catchup counters,
// store stats, and histograms (including repl_lag) in the Prometheus
// text format. hipacd serves it on the -metrics listener in replica
// mode.
func (r *Replica) WritePrometheus(w io.Writer) error {
	st := r.Status()
	series := []obs.Series{
		obs.Gauge("hipac_repl_applied_lsn", st.AppliedLSN),
		obs.Gauge("hipac_repl_primary_flushed_lsn", st.FlushedLSN),
		obs.Gauge("hipac_repl_lag_bytes", st.LagBytes),
		obs.Gauge("hipac_repl_lag_nanos", uint64(st.LagNanos)),
		obs.Gauge("hipac_repl_generation", uint64(st.Generation)),
		obs.Counter("hipac_repl_batches_applied_total", st.Batches),
		obs.Counter("hipac_repl_reconnects_total", st.Reconnects),
		obs.Counter("hipac_repl_bootstraps_total", st.Bootstraps),
	}
	if store := r.Store(); store != nil {
		s := store.Stats()
		series = append(series,
			obs.Gauge("hipac_store_published_lsn", s.PublishedLSN),
			obs.Gauge("hipac_store_oldest_snapshot_lsn", s.OldestSnapshotLSN),
			obs.Gauge("hipac_store_live_snapshots", uint64(s.LiveSnapshots)),
			obs.Gauge("hipac_store_gets_total", s.Gets),
			obs.Gauge("hipac_store_scans_total", s.Scans),
			obs.Gauge("hipac_store_rows_scanned_total", s.RowsScanned),
			obs.Gauge("hipac_store_shapes", uint64(s.Shapes)),
		)
	}
	if err := obs.WriteSeries(w, series); err != nil {
		return err
	}
	return obs.WritePrometheus(w, r.o.Snapshot(), "hipac")
}
