package store

// InlineSpanMax is the raw length from which a span gets a chunk file.
const InlineSpanMax = inlineSpanMax

// SetSweepHook installs a test hook that runs between GC's mark and
// sweep phases, with the store mutex held.
func (s *Store) SetSweepHook(f func()) { s.sweepHook = f }

// Totals returns the running totals behind the store.* gauges, derived
// fields included, so tests can compare them with the Stats walk.
func (s *Store) Totals() StatsReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.totals.derive()
	return s.totals
}

// WriteFileAtomic exposes the temp+rename write.
var WriteFileAtomic = writeFileAtomic

// Root returns the store's base directory, for tests that plant or damage
// files under it.
func (s *Store) Root() string { return s.root }
