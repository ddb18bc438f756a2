package server

import (
	"errors"
	"sync"
)

// ErrQueueFull is returned by Push when the queue is at capacity; the
// HTTP layer translates it into 429 Too Many Requests.
var ErrQueueFull = errors.New("server: job queue full")

// ErrQueueClosed is returned by Push once the daemon is draining.
var ErrQueueClosed = errors.New("server: job queue closed")

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
// pool. Push rejects instead of blocking — backpressure is the point —
// while Pop blocks until a job arrives or the queue closes. Pop prefers
// the interactive lane but is starvation-bounded (see starvationBound);
// each lane is FIFO. Closing wakes every waiting worker; jobs still
// queued at close time are returned by Drain so the server can mark
// them canceled.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  [2][]*job // [interactive, batch]
	max    int       // bound on total queued jobs across lanes
	closed bool

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
	q := &queue{max: max}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends a job to its priority lane, failing fast when full or
// closed.
func (q *queue) Push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if len(q.lanes[0])+len(q.lanes[1]) >= q.max {
		return ErrQueueFull
	}
	i := laneIndex(j.Spec.Priority)
	q.lanes[i] = append(q.lanes[i], j)
	q.cond.Signal()
	return nil
}

// Pop removes the next job, blocking until one is available. ok is
// false once the queue is closed and empty.
func (q *queue) Pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.lanes[0]) == 0 && len(q.lanes[1]) == 0 && !q.closed {
		q.cond.Wait()
	}
	switch {
	case len(q.lanes[0]) == 0 && len(q.lanes[1]) == 0:
		return nil, false
	case len(q.lanes[0]) == 0:
		j = q.popLane(1)
	case len(q.lanes[1]) == 0:
		j = q.popLane(0)
		q.interactiveStreak = 0 // no batch work was waiting
	case q.interactiveStreak >= starvationBound:
		j = q.popLane(1)
	default:
		j = q.popLane(0)
		q.interactiveStreak++
	}
	return j, true
}

// popLane removes the head of lane i; the caller holds q.mu and has
// checked the lane is non-empty.
func (q *queue) popLane(i int) *job {
	j := q.lanes[i][0]
	q.lanes[i] = q.lanes[i][1:]
	if i == 1 {
		q.interactiveStreak = 0
	}
	return j
}

// Remove deletes a queued job by id from whichever lane holds it
// (cancellation before a worker takes it), reporting whether it was
// present.
func (q *queue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for l := range q.lanes {
		for i, j := range q.lanes[l] {
			if j.ID == id {
				q.lanes[l] = append(q.lanes[l][:i], q.lanes[l][i+1:]...)
				return true
			}
		}
	}
	return false
}

// Len returns the current queue depth across both lanes.
func (q *queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.lanes[0]) + len(q.lanes[1])
}

// LaneLen returns one lane's depth; lane is laneInteractive or laneBatch.
func (q *queue) LaneLen(lane string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.lanes[laneIndex(lane)])
}

// Close stops the queue: subsequent Push fails, and blocked Pops return
// once the remaining items are consumed. Close is idempotent.
func (q *queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Drain removes and returns every queued job from both lanes — used at
// shutdown to mark never-started jobs canceled. Callers should Close
// first so no worker races the drain.
func (q *queue) Drain() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := append(q.lanes[0], q.lanes[1]...)
	q.lanes[0], q.lanes[1] = nil, nil
	return out
}
