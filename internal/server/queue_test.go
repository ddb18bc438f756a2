package server

// Tests of the daemon's two-lane priority queue.

import "testing"

// queuedJob builds a job in the given priority lane (empty means the
// interactive default lane).
func queuedJob(id, priority string) *job {
	return &job{ID: id, Spec: Spec{Priority: priority}}
}

func TestQueueFIFOWithinLaneAndBounds(t *testing.T) {
	q := newQueue(2)
	if err := q.Push(queuedJob("a", laneBatch)); err != nil {
		t.Fatalf("Push a: %v", err)
	}
	if err := q.Push(queuedJob("b", laneBatch)); err != nil {
		t.Fatalf("Push b: %v", err)
	}
	// The bound covers both lanes together.
	if err := q.Push(queuedJob("c", laneInteractive)); err != ErrQueueFull {
		t.Fatalf("Push over capacity: %v, want ErrQueueFull", err)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if j := q.Pop(); j == nil || j.ID != "a" {
		t.Fatalf("Pop = %v, want a", j)
	}
	if j := q.Pop(); j == nil || j.ID != "b" {
		t.Fatalf("Pop = %v, want b", j)
	}
	if j := q.Pop(); j != nil {
		t.Fatalf("Pop on an empty queue = %v, want nil", j)
	}
}

func TestQueueInteractiveOvertakesBatch(t *testing.T) {
	q := newQueue(8)
	q.Push(queuedJob("batch1", laneBatch))
	q.Push(queuedJob("batch2", laneBatch))
	q.Push(queuedJob("int1", laneInteractive))
	q.Push(queuedJob("int2", laneInteractive))
	if len(q.lanes[0]) != 2 || len(q.lanes[1]) != 2 {
		t.Fatalf("lane depths %d/%d", len(q.lanes[0]), len(q.lanes[1]))
	}
	// Interactive jobs pop first despite arriving later; each lane stays
	// FIFO.
	want := []string{"int1", "int2", "batch1", "batch2"}
	for _, id := range want {
		if j := q.Pop(); j == nil || j.ID != id {
			t.Fatalf("Pop = %v, want %s", j, id)
		}
	}
}

func TestQueueStarvationBound(t *testing.T) {
	q := newQueue(64)
	q.Push(queuedJob("batch", laneBatch))
	for i := 0; i < 10; i++ {
		q.Push(queuedJob("int", laneInteractive))
	}
	// With batch work waiting, at most starvationBound (4) interactive
	// jobs run before the batch job gets a turn.
	batchAt := -1
	for i := 0; i < 11; i++ {
		j := q.Pop()
		if j == nil {
			t.Fatalf("queue drained early at %d", i)
		}
		if j.ID == "batch" {
			batchAt = i
			break
		}
	}
	if batchAt < 0 || batchAt > 4 {
		t.Fatalf("batch job popped at position %d, want within the starvation bound of 4", batchAt)
	}
}

// TestQueueRemoveAcrossLanes: Remove takes a job out of whichever lane
// holds it and leaves the rest in order; removing a job no longer queued
// changes nothing. Closing and draining the queue are the server's
// (TestShutdownIdlePool, TestDrainLeavesJobManifests).
func TestQueueRemoveAcrossLanes(t *testing.T) {
	q := newQueue(8)
	a, b := queuedJob("a", laneInteractive), queuedJob("b", laneBatch)
	for _, j := range []*job{queuedJob("i", laneInteractive), a, b, queuedJob("c", laneBatch)} {
		q.Push(j)
	}
	q.Remove(a)
	q.Remove(b)
	q.Remove(a)
	if q.Len() != 2 {
		t.Fatalf("Len after removing a and b = %d, want 2", q.Len())
	}
	for _, id := range []string{"i", "c"} {
		if j := q.Pop(); j == nil || j.ID != id {
			t.Fatalf("Pop = %v, want %s", j, id)
		}
	}
}
