package obs

import (
	"sync/atomic"
	"time"
)

// Metrics is the fixed set of latency histograms. The hot path is a
// single atomic load when disabled and three atomic adds per
// observation when enabled; there are no locks and no allocations.
type Metrics struct {
	on   atomic.Bool
	hist [numHists]Histogram
}

// On reports whether recording is enabled. Safe on nil.
func (m *Metrics) On() bool { return m != nil && m.on.Load() }

// Observe records one duration into the named histogram when enabled.
func (m *Metrics) Observe(id HistID, d time.Duration) {
	if m.On() {
		m.hist[id].Observe(d)
	}
}

// ObserveN records one count observation (e.g. a group-commit batch
// size) into a count histogram (see HistIsCount). Counts share the
// power-of-two bucket layout: one count unit maps to one microsecond
// internally; read them back with MeanCount/QuantileCount.
func (m *Metrics) ObserveN(id HistID, n uint64) {
	if m.On() {
		m.hist[id].Observe(time.Duration(n) * time.Microsecond)
	}
}

// Timer starts timing an operation destined for histogram id. When
// metrics are off (or m is nil) the zero Timer is returned and Done
// is a no-op, so call sites need no branches.
func (m *Metrics) Timer(id HistID) Timer {
	if !m.On() {
		return Timer{}
	}
	return Timer{m: m, id: id, start: time.Now()}
}

// Timer measures one operation; see Metrics.Timer.
type Timer struct {
	m     *Metrics
	id    HistID
	start time.Time
}

// Done records the elapsed time. No-op on the zero Timer.
func (t Timer) Done() {
	if t.m != nil {
		t.m.hist[t.id].Observe(time.Since(t.start))
	}
}
