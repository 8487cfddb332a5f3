package rule

// SetWorkers restarts m's firing workers: workers of them, on a FIFO
// with room for slots firings. Call it before m runs any firing.
func SetWorkers(m *Manager, workers, slots int) {
	m.Close()
	m.closed.Store(false)
	m.start(workers, slots)
}
