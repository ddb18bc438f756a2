package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"doubleplay/internal/core"
)

// PromValue is the value of series, a metric name with its rendered
// labels, in the Prometheus text out: 0 when no line shows it, what a
// gauge never set reads.
func PromValue(out, series string) float64 {
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// StateGaugeDrift compares the serve.jobs{state}, serve.queue_depth,
// queue.lane_depth{lane} and serve.workers_busy gauges, as WritePrometheus
// renders them, and the queue itself, with a fresh scan of the job table,
// all read under the server mutex, and describes the first difference (""
// when they agree).
func (s *Server) StateGaugeDrift() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var prom strings.Builder
	if err := s.reg.WritePrometheus(&prom); err != nil {
		return err.Error()
	}
	gauge := func(series string) int { return int(PromValue(prom.String(), series)) }
	scan := map[State]int{}
	var lanes [2]int // queued jobs per lane
	for _, j := range s.jobs {
		scan[j.State]++
		if j.State == stateQueued {
			lanes[laneIndex(j.Spec.Priority)]++
		}
	}
	for _, st := range []State{stateQueued, stateRunning, StateDone, stateFailed, stateCanceled} {
		if got := gauge(`doubleplay_serve_jobs{state="` + string(st) + `"}`); got != scan[st] {
			return fmt.Sprintf("serve.jobs{state=%s} = %d, the job table holds %d (scan %v)", st, got, scan[st], scan)
		}
	}
	if got := gauge("doubleplay_serve_queue_depth"); got != scan[stateQueued] {
		return fmt.Sprintf("serve.queue_depth = %d, the job table holds %d queued", got, scan[stateQueued])
	}
	for i, lane := range []string{laneInteractive, laneBatch} {
		if got := gauge(`doubleplay_queue_lane_depth{lane="` + lane + `"}`); got != lanes[i] {
			return fmt.Sprintf("queue.lane_depth{lane=%s} = %d, the job table holds %d queued there", lane, got, lanes[i])
		}
		for _, j := range s.queue.lanes[i] {
			if j.State != stateQueued || laneIndex(j.Spec.Priority) != i {
				return fmt.Sprintf("the %s lane holds job %s, state %s, priority %q", lane, j.ID, j.State, j.Spec.Priority)
			}
		}
		if len(s.queue.lanes[i]) != lanes[i] {
			return fmt.Sprintf("the %s lane holds %d jobs, the job table %d queued there", lane, len(s.queue.lanes[i]), lanes[i])
		}
	}
	if got := gauge("doubleplay_serve_workers_busy"); got != scan[stateRunning] {
		return fmt.Sprintf("serve.workers_busy = %d, the job table holds %d running", got, scan[stateRunning])
	}
	return ""
}

// WaitState blocks until job id's state satisfies pred, waking at each
// job transition, and reports false once d has passed without it.
func (s *Server) WaitState(id string, pred func(State) bool, d time.Duration) bool {
	deadline := time.Now().Add(d)
	wake := time.AfterFunc(d, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.changed.Broadcast()
	})
	defer wake.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.jobs[id]; j != nil && pred(j.State) {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		s.changed.Wait()
	}
}

// WaitJob blocks until a job is terminal and returns its view, for
// callers that submit through Submit, not HTTP.
func (s *Server) WaitJob(id string) Info {
	s.WaitState(id, State.Terminal, time.Hour)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].info()
}

// JobRecording records sp the way a job of its kind does, storing the
// recording as job id's, and returns the result with the boundaries the
// job keeps.
func (s *Server) JobRecording(ctx context.Context, id string, sp Spec) (*core.Result, error) {
	sp.Normalize()
	res, _, _, err := s.record(ctx, id, sp, nil, new(ResultSummary))
	return res, err
}
