package server

import (
	"fmt"

	"doubleplay/internal/trace"
)

// StateGaugeDrift compares the serve.jobs{state} gauges with a fresh scan
// of the job table, both read under the server mutex, and describes the
// first difference ("" when they agree).
func (s *Server) StateGaugeDrift() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	scan := map[State]int{}
	for _, j := range s.jobs {
		scan[j.State]++
	}
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		if got := int(s.reg.Gauge("serve.jobs", trace.Label("state", string(st)))); got != scan[st] {
			return fmt.Sprintf("serve.jobs{state=%s} = %d, the job table holds %d (scan %v)", st, got, scan[st], scan)
		}
	}
	return ""
}
