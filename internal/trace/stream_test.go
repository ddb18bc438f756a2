package trace

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// lcg is a tiny deterministic generator for shuffled timestamps.
func lcg(state *uint64) uint64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return *state >> 33
}

// writeJSON is s.WriteJSON into a fresh buffer.
func writeJSON(t *testing.T, s *Sink) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamSinkNilSafe(t *testing.T) {
	var s *StreamSink
	if s.Enabled() {
		t.Fatal("nil StreamSink reports enabled")
	}
	s.Emit(Event{Name: "x"})
	s.Span("a", 0, 1, 1, 1, nil)
	s.Instant("b", 0, 1, 1, nil)
	s.Counter("c", 0, 1, 2)
	s.NameThread(1, 1, "t")
	s.Splice(NewSink(), 0, 1, 1)
	if pid := s.AllocPid("p"); pid != 0 {
		t.Fatalf("nil AllocPid = %d", pid)
	}
	if s.Len() != 0 {
		t.Fatal("nil Len not zero")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSinkBoundedAndMultisetEqual: with heavily out-of-order
// emission, a streaming sink holds no event in memory, and what it writes
// is byte for byte what WriteJSON writes for a sink that kept the same
// emission.
func TestStreamSinkBoundedAndMultisetEqual(t *testing.T) {
	const n = 500
	var out bytes.Buffer
	stream := NewStreamSink(&out, 0)
	kept := NewSink()

	state := uint64(42)
	for i := 0; i < n; i++ {
		ts := int64(lcg(&state) % 10000) // wildly out of order
		var ev Event
		switch i % 3 {
		case 0:
			ev = Event{Name: "span", Ph: PhaseComplete, Ts: ts, Dur: 5,
				Pid: 1, Tid: int64(i % 4), Args: map[string]any{"i": i}}
		case 1:
			ev = Event{Name: "inst", Ph: PhaseInstant, Ts: ts, Pid: 1, Tid: 0}
		case 2:
			ev = Event{Name: "ctr", Ph: PhaseCounter, Ts: ts, Pid: 1,
				Args: map[string]any{"value": int64(i)}}
		}
		stream.Emit(ev)
		kept.Emit(ev)
	}
	if got := len(stream.Events()); got != 0 {
		t.Fatalf("streaming sink kept %d events", got)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if stream.Len() != n || kept.Len() != n {
		t.Fatalf("Len: streamed %d, kept %d, emitted %d", stream.Len(), kept.Len(), n)
	}
	if want := writeJSON(t, kept); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stream differs from WriteJSON:\nstream    %.300s\nWriteJSON %.300s", out.Bytes(), want)
	}
}

// TestStreamSinkSpliceMatchesSink pins Splice semantics on a streaming
// sink against a keeping one: identical shift, re-homing, and counter/meta
// exemption.
func TestStreamSinkSpliceMatchesSink(t *testing.T) {
	child := NewSink()
	child.Span("slice", 0, 100, 0, 0, map[string]any{"tid": 1})
	child.Instant("sync", 50, 0, 3, nil)
	child.Counter("log.bytes", 75, 0, 1234)
	child.NameThread(0, 0, "w")

	var out bytes.Buffer
	stream := NewStreamSink(&out, 0)
	stream.Splice(child, 1000, 7, 9)
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	kept := NewSink()
	kept.Splice(child, 1000, 7, 9)
	if want := writeJSON(t, kept); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("splice mismatch:\nstream %s\nkept   %s", out.Bytes(), want)
	}
}

func TestStreamSinkCloseIdempotentAndRejects(t *testing.T) {
	var out bytes.Buffer
	stream := NewStreamSink(&out, 0)
	stream.Instant("x", 1, 1, 0, nil)
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	first := out.String()
	if err := stream.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if out.String() != first {
		t.Fatal("second Close wrote more output")
	}
	stream.Instant("y", 2, 1, 0, nil)
	if stream.Close() == nil {
		t.Fatal("emit after Close not reported")
	}
	if out.String() != first {
		t.Fatal("emit after Close wrote output")
	}
	if _, err := ParseJSON(strings.NewReader(first)); err != nil {
		t.Fatalf("closed output does not parse: %v", err)
	}
}

// TestStreamSinkConcurrentEmit: emitters on several goroutines share one
// stream, and every event lands in the file whole.
func TestStreamSinkConcurrentEmit(t *testing.T) {
	const goroutines, each = 4, 200
	var out bytes.Buffer
	stream := NewStreamSink(&out, 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pid := stream.AllocPid("g")
			for i := 0; i < each; i++ {
				stream.Span("slice", int64(i), 1, pid, 0, map[string]any{"i": i})
			}
		}()
	}
	wg.Wait()
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseJSON(&out)
	if err != nil {
		t.Fatal(err)
	}
	if want := goroutines * (each + 1); len(evs) != want || stream.Len() != want {
		t.Fatalf("parsed %d events, Len %d, want %d", len(evs), stream.Len(), want)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestStreamSinkWriteErrorIsSticky: once the writer fails, later events
// are counted but not written, and Close reports the first error.
func TestStreamSinkWriteErrorIsSticky(t *testing.T) {
	stream := NewStreamSink(failWriter{}, 0)
	const n = 1000 // several bufio buffers' worth
	for i := 0; i < n; i++ {
		stream.Span("slice", int64(i), 2, 1, 0, nil)
	}
	if err := stream.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want the write error", err)
	}
	if stream.Len() != n {
		t.Fatalf("Len = %d, want %d", stream.Len(), n)
	}
}

func TestStreamSinkEmptyCloseParses(t *testing.T) {
	var out bytes.Buffer
	stream := NewStreamSink(&out, 0)
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseJSON(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("empty stream parsed into %d events", len(evs))
	}
}

func TestStreamSinkAllocPid(t *testing.T) {
	var out bytes.Buffer
	stream := NewStreamSink(&out, 0)
	p1 := stream.AllocPid("first")
	p2 := stream.AllocPid("second")
	if p1 == p2 || p1 == 0 || p2 == 0 {
		t.Fatalf("AllocPid returned %d then %d", p1, p2)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJSON(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	names := map[int64]string{}
	for _, ev := range parsed {
		if ev.Name == "process_name" {
			names[ev.Pid], _ = ev.Args["name"].(string)
		}
	}
	if names[p1] != "first" || names[p2] != "second" {
		t.Fatalf("process names %v", names)
	}
}
