package server

import "errors"

// ErrQueueFull is returned by Push when the queue is at capacity; the
// HTTP layer translates it into 429 Too Many Requests.
var ErrQueueFull = errors.New("server: job queue full")

// Priority lane names. Interactive jobs (replay-by-id, debug sessions —
// someone is waiting on the result) overtake batch jobs (recording
// campaigns) at the queue head; within a lane order stays FIFO.
const (
	laneInteractive = "interactive"
	laneBatch       = "batch"
)

// laneIndex maps a normalized Spec.Priority to its lane slot.
func laneIndex(priority string) int {
	if priority == laneBatch {
		return 1
	}
	return 0
}

// starvationBound caps how many consecutive interactive jobs may
// overtake a waiting batch job. After this many interactive pops in a
// row with batch work queued, the next Pop takes from the batch lane,
// so batch progress is delayed by at most starvationBound interactive
// jobs per worker slot.
const starvationBound = 4

// queue is a bounded two-lane priority queue of jobs feeding the worker
// pool. It is plain data: Server.mu guards it along with the job table, so
// a job is in the queue exactly while its state is queued. Push rejects
// instead of blocking — backpressure is the point. Pop prefers the
// interactive lane but is starvation-bounded (see starvationBound); each
// lane is FIFO.
type queue struct {
	lanes [2][]*job // [interactive, batch]
	max   int       // bound on total queued jobs across lanes

	// interactiveStreak counts consecutive interactive pops made while
	// batch work was waiting; it resets whenever a batch job is popped
	// or the batch lane is empty.
	interactiveStreak int
}

// newQueue returns an empty queue holding at most max jobs in total;
// max <= 0 selects an effectively unbounded queue.
func newQueue(max int) *queue {
	if max <= 0 {
		max = 1 << 30
	}
	return &queue{max: max}
}

// Len returns the queue depth across both lanes.
func (q *queue) Len() int { return len(q.lanes[0]) + len(q.lanes[1]) }

// Push appends a job to its priority lane, failing fast when full.
func (q *queue) Push(j *job) error {
	if q.Len() >= q.max {
		return ErrQueueFull
	}
	i := laneIndex(j.Spec.Priority)
	q.lanes[i] = append(q.lanes[i], j)
	return nil
}

// Pop removes and returns the next job, or nil when the queue is empty.
func (q *queue) Pop() *job {
	switch {
	case len(q.lanes[0]) == 0 && len(q.lanes[1]) == 0:
		return nil
	case len(q.lanes[0]) == 0:
		return q.popLane(1)
	case len(q.lanes[1]) == 0:
		q.interactiveStreak = 0 // no batch work was waiting
		return q.popLane(0)
	case q.interactiveStreak >= starvationBound:
		return q.popLane(1)
	default:
		q.interactiveStreak++
		return q.popLane(0)
	}
}

// popLane removes the head of lane i, which the caller has checked is
// non-empty.
func (q *queue) popLane(i int) *job {
	j := q.lanes[i][0]
	q.lanes[i] = q.lanes[i][1:]
	if i == 1 {
		q.interactiveStreak = 0
	}
	return j
}

// Remove deletes a queued job from its lane (cancellation before a worker
// takes it).
func (q *queue) Remove(j *job) {
	l := laneIndex(j.Spec.Priority)
	for i, k := range q.lanes[l] {
		if k == j {
			q.lanes[l] = append(q.lanes[l][:i], q.lanes[l][i+1:]...)
			return
		}
	}
}
