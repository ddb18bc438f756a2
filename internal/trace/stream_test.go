package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// lcg is a tiny deterministic generator for shuffled timestamps.
func lcg(state *uint64) uint64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return *state >> 33
}

// writeJSON streams the events s kept into a fresh document, each as it
// was emitted.
func writeJSON(t *testing.T, s *Sink) []byte {
	t.Helper()
	var buf bytes.Buffer
	out := NewStreamSink(&buf, 0)
	for _, ev := range s.kept() {
		out.add(ev, ev.Args)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamSinkNilSafe(t *testing.T) {
	var s *StreamSink
	if s.Enabled() {
		t.Fatal("nil StreamSink reports enabled")
	}
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
// is byte for byte the document of the events a keeping sink kept from the
// same emission.
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
				Pid: 1, Tid: int64(i % 4), Args: []Arg{Int("i", i)}}
		case 1:
			ev = Event{Name: "inst", Ph: PhaseInstant, Ts: ts, Pid: 1, Tid: 0}
		case 2:
			ev = Event{Name: "ctr", Ph: PhaseCounter, Ts: ts, Pid: 1,
				Args: []Arg{Int("value", i)}}
		}
		stream.add(ev, ev.Args)
		kept.add(ev, ev.Args)
	}
	if got := len(stream.kept()); got != 0 {
		t.Fatalf("streaming sink kept %d events", got)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if stream.Len() != n || kept.Len() != n {
		t.Fatalf("Len: streamed %d, kept %d, emitted %d", stream.Len(), kept.Len(), n)
	}
	if want := writeJSON(t, kept); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stream differs from kept:\nstream %.300s\nkept   %.300s", out.Bytes(), want)
	}
}

// TestStreamSinkSpliceMatchesSink pins Splice semantics on a streaming
// sink against a keeping one: identical shift, re-homing, and counter/meta
// exemption.
func TestStreamSinkSpliceMatchesSink(t *testing.T) {
	child := NewSink()
	child.Span("slice", 0, 100, 0, 0, []Arg{Int("tid", 1)})
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
				stream.Span("slice", int64(i), 1, pid, 0, []Arg{Int("i", i)})
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
			names[ev.Pid], _ = ev.Str("name")
		}
	}
	if names[p1] != "first" || names[p2] != "second" {
		t.Fatalf("process names %v", names)
	}
}

// TestStreamedEmitAllocatesNothing: a streamed span, instant or counter,
// with up to four arguments built at the call the way emitters build them,
// costs no allocation — the arguments stay on the caller's stack and the
// encoder reuses its buffer.
func TestStreamedEmitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewStreamSink(io.Discard, 0)
	pid := s.AllocPid("guard")
	var ts int64
	allocs := testing.AllocsPerRun(1000, func() {
		ts++
		s.Span("slice", ts, 2, pid, 0, nil)
		s.Span("run", ts, 2, pid, 1, []Arg{Int("cpu", 3)})
		s.Span("slice", ts, 2, pid, 0, []Arg{Int("tid", 2), Uint("retired", uint64(ts))})
		s.Instant("sync", ts, pid, 2, []Arg{String("kind", "mutex"), Int("id", ts), Bool("gated", true)})
		s.Instant("checkpoint.create", ts, pid, 0, []Arg{Int("epoch", ts), Int("pages", 12), Int("cow_pages", -1), String("reason", "recovery.adopt")})
		s.Counter("log.syscalls", ts, pid, ts)
	})
	if allocs != 0 {
		t.Fatalf("streamed emits allocate %.1f per run of six events", allocs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResetBufferRefillsInPlace holds Reset, which the recorder's
// verifier and sequential replay call to reuse one child buffer per epoch:
// a reset buffer holds exactly what a new one would after the same
// emits, and splices the same events into its parent. Refilled with no
// more than it held before, it allocates nothing.
func TestResetBufferRefillsInPlace(t *testing.T) {
	fill := func(s *Sink, n int64) {
		for i := int64(0); i < n; i++ {
			s.Span("slice", i, 2, 0, 0, []Arg{Int("tid", i), Uint("retired", uint64(i))})
			s.Instant("sync", i, 0, 0, []Arg{String("kind", "mutex")})
		}
	}
	reused := NewSink()
	fill(reused, 40)
	reused.Reset()
	if n := reused.Len(); n != 0 {
		t.Fatalf("Len after Reset = %d", n)
	}
	fill(reused, 7)
	fresh := NewSink()
	fill(fresh, 7)
	if got, want := reused.kept(), fresh.kept(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset buffer holds %v, a new one %v", got, want)
	}
	var a, b bytes.Buffer
	for _, c := range []struct {
		child *Sink
		out   *bytes.Buffer
	}{{reused, &a}, {fresh, &b}} {
		parent := NewStreamSink(c.out, 0)
		parent.Splice(c.child, 100, 1, 2)
		if err := parent.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if a.String() != b.String() {
		t.Fatalf("spliced reset buffer wrote %s, a new one %s", a.String(), b.String())
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	if n := testing.AllocsPerRun(100, func() { reused.Reset(); fill(reused, 40) }); n != 0 {
		t.Fatalf("refilling a reset buffer made %v allocations", n)
	}
}
