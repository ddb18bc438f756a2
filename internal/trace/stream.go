package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// DefaultStreamWindow is the default reorder-window size, in events, of a
// [StreamSink]. It is sized to cover the largest burst of out-of-order
// emission the recorder produces (one epoch's spliced timeslice buffer plus
// the boundary events around it) while keeping resident memory trivial.
const DefaultStreamWindow = 256

// StreamSink is a [Recorder] that writes Chrome trace_event JSON to an
// io.Writer incrementally instead of buffering the whole recording. At most
// window events are resident at any time: events enter a reorder window
// ordered by timestamp, and once the window is full the oldest event is
// flushed to the writer. The window absorbs the recorder's local
// out-of-order emission — spliced epoch buffers, counters sampled at
// boundaries — so the streamed file is approximately time-sorted; events
// arriving more than a window late are still written (the trace_event
// format does not require global ordering), just out of order.
//
// The streamed output round-trips through [ParseJSON] into exactly the
// event multiset a buffered [Sink] would have collected for the same run.
//
// A nil *StreamSink is the disabled sink, like a nil *Sink: every method
// no-ops and Enabled reports false. StreamSinks are safe for concurrent
// use. Call [StreamSink.Close] to drain the window and complete the JSON
// document; the underlying writer is not closed.
type StreamSink struct {
	mu      sync.Mutex
	w       *bufio.Writer
	window  int
	heap    []streamEntry // min-heap on (Ts, seq)
	seq     uint64
	nextPid int64
	started bool
	closed  bool
	written int
	maxLive int
	err     error
	enc     []byte // writeLocked's encoding buffer

	// Downsampling state; zero values mean lossless (see Downsample).
	minSpanDur    int64
	counterStride int
	counterSeen   map[counterKey]int
	dropped       int
}

// counterKey identifies one counter series for stride thinning: counters
// are per (process, name) step functions.
type counterKey struct {
	pid  int64
	name string
}

// streamEntry pairs an event with its emission sequence number, which
// breaks timestamp ties so equal-time events flush in emission order.
type streamEntry struct {
	ev  Event
	seq uint64
}

// NewStreamSink returns a streaming sink writing to w with the given
// reorder-window size; window <= 0 selects DefaultStreamWindow. Output is
// buffered; Close (or Flush) pushes it to w.
func NewStreamSink(w io.Writer, window int) *StreamSink {
	if window <= 0 {
		window = DefaultStreamWindow
	}
	return &StreamSink{w: bufio.NewWriter(w), window: window, nextPid: 1}
}

// Enabled reports whether events are being collected.
func (s *StreamSink) Enabled() bool { return s != nil }

// Emit appends one event; it may flush the oldest buffered event to the
// underlying writer.
func (s *StreamSink) Emit(ev Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.emitLocked(ev)
	s.mu.Unlock()
}

// Downsample enables lossy compaction of the stream, for traces that
// must stay Perfetto-friendly at large scale: complete (span) events
// shorter than minSpanDur cycles are dropped, and each counter series
// keeps only every counterStride-th sample (the first sample of every
// series is always kept, so each step function still starts at its true
// origin). Instants and metadata always pass through — divergences,
// checkpoints, and commits are exactly the events a compacted trace
// exists to show. Dropped events are counted in [StreamSink.Dropped].
//
// minSpanDur <= 0 keeps every span; counterStride <= 1 keeps every
// counter sample. Call before emitting; downsampling an in-flight stream
// only affects subsequent events.
func (s *StreamSink) Downsample(minSpanDur int64, counterStride int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.minSpanDur = minSpanDur
	s.counterStride = counterStride
	if counterStride > 1 && s.counterSeen == nil {
		s.counterSeen = make(map[counterKey]int)
	}
	s.mu.Unlock()
}

// Dropped returns how many events downsampling has discarded so far.
func (s *StreamSink) Dropped() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// keepLocked applies the downsampling policy to one event.
func (s *StreamSink) keepLocked(ev Event) bool {
	switch ev.Ph {
	case PhaseComplete:
		if s.minSpanDur > 0 && ev.Dur < s.minSpanDur {
			s.dropped++
			return false
		}
	case PhaseCounter:
		if s.counterStride > 1 {
			k := counterKey{pid: ev.Pid, name: ev.Name}
			n := s.counterSeen[k]
			s.counterSeen[k] = n + 1
			if n%s.counterStride != 0 {
				s.dropped++
				return false
			}
		}
	}
	return true
}

// emitLocked inserts ev into the reorder window, flushing the oldest
// events first so the live buffer never exceeds the window size.
func (s *StreamSink) emitLocked(ev Event) {
	if s.closed {
		if s.err == nil {
			s.err = fmt.Errorf("trace: emit on closed StreamSink")
		}
		return
	}
	if !s.keepLocked(ev) {
		return
	}
	for len(s.heap) >= s.window {
		s.popWriteLocked()
	}
	s.heap = append(s.heap, streamEntry{ev: ev, seq: s.seq})
	s.seq++
	s.upLocked(len(s.heap) - 1)
	if len(s.heap) > s.maxLive {
		s.maxLive = len(s.heap)
	}
}

// less orders the reorder window by timestamp, then emission order.
func (s *StreamSink) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if a.ev.Ts != b.ev.Ts {
		return a.ev.Ts < b.ev.Ts
	}
	return a.seq < b.seq
}

func (s *StreamSink) upLocked(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *StreamSink) downLocked(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s.heap) && s.less(l, m) {
			m = l
		}
		if r < len(s.heap) && s.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
}

// popWriteLocked writes the oldest buffered event to the stream.
func (s *StreamSink) popWriteLocked() {
	ev := s.heap[0].ev
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.downLocked(0)
	}
	s.writeLocked(ev)
}

// writeLocked appends one event to the JSON stream, emitting the document
// header before the first. Write errors are sticky; see Err.
func (s *StreamSink) writeLocked(ev Event) {
	if s.err != nil {
		s.written++ // keep the count honest even after an error
		return
	}
	if !s.started {
		if _, err := s.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
			s.err = err
			s.written++
			return
		}
		s.started = true
	} else {
		if err := s.w.WriteByte(','); err != nil {
			s.err = err
			s.written++
			return
		}
	}
	var err error
	if s.enc, err = appendEvent(s.enc[:0], ev); err == nil {
		_, err = s.w.Write(s.enc)
	}
	if err != nil {
		s.err = err
	}
	s.written++
}

// Span emits a complete event covering [ts, ts+dur).
func (s *StreamSink) Span(name string, ts, dur, pid, tid int64, args map[string]any) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: name, Ph: PhaseComplete, Ts: ts, Dur: dur, Pid: pid, Tid: tid, Args: args})
}

// Instant emits a point event at ts.
func (s *StreamSink) Instant(name string, ts, pid, tid int64, args map[string]any) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: name, Ph: PhaseInstant, Ts: ts, Pid: pid, Tid: tid, Args: args})
}

// Counter emits a sampled counter value.
func (s *StreamSink) Counter(name string, ts, pid int64, value int64) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: name, Ph: PhaseCounter, Ts: ts, Pid: pid, Args: map[string]any{"value": value}})
}

// AllocPid reserves a fresh process id and names its track group.
func (s *StreamSink) AllocPid(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	pid := s.nextPid
	s.nextPid++
	s.emitLocked(Event{Name: "process_name", Ph: PhaseMeta, Pid: pid, Args: map[string]any{"name": name}})
	s.mu.Unlock()
	return pid
}

// NameThread names one track within a process.
func (s *StreamSink) NameThread(pid, tid int64, name string) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: "thread_name", Ph: PhaseMeta, Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

// Splice streams every event of child, shifted by shift cycles and re-homed
// onto (pid, tid) with the same semantics as [Sink.Splice]. The child's
// events pass through the reorder window one by one, so splicing never
// enlarges the live buffer beyond the window.
func (s *StreamSink) Splice(child *Sink, shift, pid, tid int64) {
	if s == nil || child == nil {
		return
	}
	evs := child.Events()
	s.mu.Lock()
	for _, ev := range evs {
		ev.Ts += shift
		ev.Pid = pid
		if ev.Ph != PhaseCounter && ev.Ph != PhaseMeta {
			ev.Tid = tid
		}
		s.emitLocked(ev)
	}
	s.mu.Unlock()
}

// Written returns the number of events written to the stream so far (it
// trails emission by up to the window size until Close).
func (s *StreamSink) Written() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// MaxBuffered returns the high-water mark of the reorder window — the
// guarantee tests pin: it never exceeds the configured window size.
func (s *StreamSink) MaxBuffered() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxLive
}

// Err returns the first write or usage error, if any.
func (s *StreamSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush drains buffered output (not the reorder window) to the underlying
// writer.
func (s *StreamSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// Close drains the reorder window, completes the JSON document, and
// flushes. The sink rejects further events; the underlying writer is left
// open. Close is idempotent.
func (s *StreamSink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	for len(s.heap) > 0 {
		s.popWriteLocked()
	}
	if s.err == nil {
		if !s.started {
			_, s.err = s.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
			s.started = s.err == nil
		}
	}
	if s.err == nil {
		_, s.err = s.w.WriteString("]}\n")
	}
	if ferr := s.w.Flush(); s.err == nil {
		s.err = ferr
	}
	s.closed = true
	return s.err
}
