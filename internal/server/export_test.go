package server

import (
	"fmt"
	"time"

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
	for _, st := range []State{stateQueued, stateRunning, StateDone, stateFailed, stateCanceled} {
		if got := int(s.reg.Gauge("serve.jobs", trace.Label("state", string(st)))); got != scan[st] {
			return fmt.Sprintf("serve.jobs{state=%s} = %d, the job table holds %d (scan %v)", st, got, scan[st], scan)
		}
	}
	return ""
}

// WaitJob polls a job's state every 100µs until it is terminal and
// returns its view, for callers that submit through Submit, not HTTP.
func (s *Server) WaitJob(id string) Info {
	j, _ := s.getJob(id)
	for !s.jobState(j).Terminal() {
		time.Sleep(100 * time.Microsecond)
	}
	return s.jobInfo(j)
}
