package server

// Tests of the daemon's two-lane priority queue.

import (
	"testing"
	"time"
)

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
	if j, ok := q.Pop(); !ok || j.ID != "a" {
		t.Fatalf("Pop = %v %v, want a", j, ok)
	}
	if j, ok := q.Pop(); !ok || j.ID != "b" {
		t.Fatalf("Pop = %v %v, want b", j, ok)
	}
}

func TestQueueInteractiveOvertakesBatch(t *testing.T) {
	q := newQueue(8)
	q.Push(queuedJob("batch1", laneBatch))
	q.Push(queuedJob("batch2", laneBatch))
	q.Push(queuedJob("int1", laneInteractive))
	q.Push(queuedJob("int2", laneInteractive))
	if q.LaneLen(laneInteractive) != 2 || q.LaneLen(laneBatch) != 2 {
		t.Fatalf("lane depths %d/%d", q.LaneLen(laneInteractive), q.LaneLen(laneBatch))
	}
	// Interactive jobs pop first despite arriving later; each lane stays
	// FIFO.
	want := []string{"int1", "int2", "batch1", "batch2"}
	for _, id := range want {
		j, ok := q.Pop()
		if !ok || j.ID != id {
			t.Fatalf("Pop = %v %v, want %s", j, ok, id)
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
		j, ok := q.Pop()
		if !ok {
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

func TestQueueRemoveAcrossLanesAndClose(t *testing.T) {
	q := newQueue(8)
	q.Push(queuedJob("a", laneInteractive))
	q.Push(queuedJob("b", laneBatch))
	if !q.Remove("a") || !q.Remove("b") {
		t.Fatalf("Remove across lanes failed")
	}
	if q.Remove("a") {
		t.Fatalf("Remove(a) twice = true")
	}

	// A Pop blocked on an empty queue wakes when the queue closes.
	q2 := newQueue(4)
	done := make(chan bool, 1)
	go func() {
		_, ok := q2.Pop()
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	q2.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatalf("Pop on closed empty queue returned ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Pop did not wake on Close")
	}
	if err := q2.Push(queuedJob("x", "")); err != ErrQueueClosed {
		t.Fatalf("Push after Close: %v, want ErrQueueClosed", err)
	}

	// Drain hands back what never ran, from both lanes.
	q3 := newQueue(8)
	q3.Push(queuedJob("i", laneInteractive))
	q3.Push(queuedJob("b", laneBatch))
	q3.Close()
	left := q3.Drain()
	if len(left) != 2 {
		t.Fatalf("Drain = %v", left)
	}
	if q3.Len() != 0 {
		t.Fatalf("Len after Drain = %d", q3.Len())
	}
}
