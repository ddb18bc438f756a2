// Package trace is the recording-observability layer: a low-overhead event
// sink that the recorder, the epoch runner, the schedulers, and replay feed
// with timestamped events (epoch spans, checkpoint operations, divergences,
// log appends, pipeline-slot occupancy, replay segments), plus an
// aggregating metrics registry of counters, gauges, and histograms.
//
// Timestamps are simulated cycles, never host time, so a trace is exactly
// reproducible for a given workload, seed, and configuration — and
// collecting one cannot perturb the cycle accounting the evaluation
// reports. A nil *Sink is valid everywhere and disables collection: every
// method is a nil-safe no-op, and hot paths guard argument construction
// behind Enabled() so the disabled path allocates nothing.
//
// Traces are Chrome trace_event JSON, written in emission order either as
// the run goes ([NewStreamSink]) or afterwards from kept events
// ([Sink.WriteJSON]), byte for byte the same document. They load directly
// into Perfetto (https://ui.perfetto.dev) or chrome://tracing; one trace
// microsecond equals one simulated cycle. The metrics [Registry] renders
// as aligned text ([Registry.Render]) or the Prometheus text format
// ([Registry.WritePrometheus], servable over HTTP via
// [Registry.Handler]/[ServeMetrics]). The full event schema is documented
// in docs/OBSERVABILITY.md.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
)

// Event phases, following the Chrome trace_event format.
const (
	PhaseComplete = 'X' // a span: Ts..Ts+Dur
	PhaseInstant  = 'i' // a point in time
	PhaseCounter  = 'C' // a sampled counter value
	PhaseMeta     = 'M' // process/thread naming metadata
)

// Event is one trace record. Ts and Dur are simulated cycles. Pid and Tid
// select the track: Pid groups related tracks into a named process (one per
// recording or replay run), Tid is one horizontal track within it.
type Event struct {
	Name string
	Ph   byte
	Ts   int64
	Dur  int64 // PhaseComplete only
	Pid  int64
	Tid  int64
	Args map[string]any
}

// Recorder is what everything that narrates a timeline — the recorder,
// the schedulers, replay, the baselines — takes. [*Sink] is its only
// implementation; the interface stays because the benchmark harness
// type-asserts an interface-typed core.Options.Trace back to a sink.
type Recorder interface {
	// Enabled reports whether events are being collected; hot paths check
	// it before building argument maps.
	Enabled() bool
	// Emit appends one event verbatim.
	Emit(ev Event)
	// Span emits a complete event covering [ts, ts+dur).
	Span(name string, ts, dur, pid, tid int64, args map[string]any)
	// Instant emits a point event at ts.
	Instant(name string, ts, pid, tid int64, args map[string]any)
	// Counter emits a sampled counter value.
	Counter(name string, ts, pid int64, value int64)
	// AllocPid reserves a fresh process id and names its track group.
	AllocPid(name string) int64
	// NameThread names one track within a process.
	NameThread(pid, tid int64, name string)
	// Splice appends a child buffer's events, shifted by shift cycles and
	// re-homed onto (pid, tid); see [Sink.Splice] for the exact semantics.
	Splice(child *Sink, shift, pid, tid int64)
}

// Enabled reports whether r is a live recorder. Unlike calling r.Enabled()
// directly it tolerates both a nil interface value and a typed-nil
// implementation, so callers holding a Recorder field that may never have
// been set can guard hot paths safely.
func Enabled(r Recorder) bool { return r != nil && r.Enabled() }

// Sink collects events in emission order. A sink made by [NewSink] keeps
// them in memory; one made by [NewStreamSink] writes each through to its
// writer as it is emitted and keeps none. The zero value is NOT ready to
// use. A nil *Sink is the disabled sink: every method no-ops and Enabled
// reports false. Sinks are safe for concurrent use.
type Sink struct {
	mu      sync.Mutex
	nextPid int64
	n       int           // events emitted
	events  []Event       // kept events; nil on a streaming sink
	w       *bufio.Writer // a streaming sink's destination; nil on a keeping one
	enc     []byte        // a streaming sink's encoding buffer
	closed  bool
	err     error // a streaming sink's first write or usage error; sticky
}

// StreamSink is another name for [Sink], kept because the benchmark
// harness type-asserts to *trace.StreamSink.
type StreamSink = Sink

// The Chrome trace_event JSON document around the events.
const (
	jsonHead = `{"traceEvents":[`
	jsonTail = `],"displayTimeUnit":"ms"}` + "\n"
)

// NewSink returns an empty, enabled sink that keeps its events. NewSink is
// also how buffers for [Sink.Splice] are made: a child sink accumulates
// events with local timestamps, and Splice re-stamps them onto a parent
// track.
func NewSink() *Sink { return &Sink{nextPid: 1} }

// NewStreamSink returns a sink that writes each event to w as Chrome
// trace_event JSON as it is emitted, through a bufio.Writer; Close
// finishes the document. The second argument is ignored: the benchmark
// harness still passes a window size.
func NewStreamSink(w io.Writer, _ int) *Sink {
	bw := bufio.NewWriter(w)
	bw.WriteString(jsonHead) // into an empty buffer: cannot fail
	return &Sink{nextPid: 1, w: bw}
}

// Enabled reports whether events are being collected. Hot paths must check
// it before building argument maps, so the nil sink costs no allocation.
func (s *Sink) Enabled() bool { return s != nil }

// Emit appends one event verbatim.
func (s *Sink) Emit(ev Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.addLocked(ev)
	s.mu.Unlock()
}

// addLocked keeps ev, or writes it to the stream after the events before
// it. Once a write has failed, events are counted but not written.
func (s *Sink) addLocked(ev Event) {
	if s.closed {
		if s.err == nil {
			s.err = errors.New("trace: emit on closed sink")
		}
		return
	}
	s.n++
	if s.w == nil {
		s.events = append(s.events, ev)
		return
	}
	if s.err != nil {
		return
	}
	s.enc = s.enc[:0]
	if s.n > 1 {
		s.enc = append(s.enc, ',')
	}
	if s.enc, s.err = appendEvent(s.enc, ev); s.err == nil {
		_, s.err = s.w.Write(s.enc)
	}
}

// Span emits a complete event covering [ts, ts+dur).
func (s *Sink) Span(name string, ts, dur, pid, tid int64, args map[string]any) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: name, Ph: PhaseComplete, Ts: ts, Dur: dur, Pid: pid, Tid: tid, Args: args})
}

// Instant emits a point event at ts.
func (s *Sink) Instant(name string, ts, pid, tid int64, args map[string]any) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: name, Ph: PhaseInstant, Ts: ts, Pid: pid, Tid: tid, Args: args})
}

// Counter emits a sampled counter value; viewers render the series named
// name as a step function over time.
func (s *Sink) Counter(name string, ts, pid int64, value int64) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: name, Ph: PhaseCounter, Ts: ts, Pid: pid, Args: map[string]any{"value": value}})
}

// AllocPid reserves a fresh process id and names its track group. Distinct
// recordings or replays sharing one sink call AllocPid so their timelines
// render as separate named processes.
func (s *Sink) AllocPid(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	pid := s.nextPid
	s.nextPid++
	s.addLocked(Event{Name: "process_name", Ph: PhaseMeta, Pid: pid, Args: map[string]any{"name": name}})
	s.mu.Unlock()
	return pid
}

// NameThread names one track within a process.
func (s *Sink) NameThread(pid, tid int64, name string) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: "thread_name", Ph: PhaseMeta, Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

// Splice appends every event of child, shifting timestamps by shift cycles
// and re-homing them onto (pid, tid). It is how epoch-local activity —
// whose global position is only known once the pipeline places the epoch —
// lands at its true simulated time: run the epoch against a child sink,
// then splice at the pipeline-assigned start. Counter and meta events keep
// their own pid/tid semantics and are shifted but not re-homed to the tid.
func (s *Sink) Splice(child *Sink, shift, pid, tid int64) {
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
		s.addLocked(ev)
	}
	s.mu.Unlock()
}

// Len returns the number of events emitted: kept, or written to the
// stream.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Events returns a snapshot of the kept events in emission order; a
// streaming sink keeps none.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// jsonEvent is the wire form of one Chrome trace_event record.
type jsonEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// jsonTrace is the container object Perfetto and chrome://tracing load.
type jsonTrace struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// toJSONEvent converts one event to its wire form.
func toJSONEvent(ev Event) jsonEvent {
	je := jsonEvent{Name: ev.Name, Ph: string(ev.Ph), Ts: ev.Ts, Pid: ev.Pid, Tid: ev.Tid, Args: ev.Args}
	if ev.Ph == PhaseComplete {
		d := ev.Dur
		je.Dur = &d
	}
	if ev.Ph == PhaseInstant {
		je.S = "t" // thread-scoped instant
	}
	return je
}

// appendEvent appends ev's wire form to dst: byte for byte what
// json.Marshal(toJSONEvent(ev)) returns, which is also what it falls back
// to for any event the direct encoder does not cover. Every trace document
// is written through here.
func appendEvent(dst []byte, ev Event) ([]byte, error) {
	if out, ok := appendPlainEvent(dst, ev); ok {
		return out, nil
	}
	b, err := json.Marshal(toJSONEvent(ev))
	return append(dst, b...), err
}

// appendPlainEvent encodes the events the emitters actually produce —
// names, keys and string values that JSON copies through unescaped, args
// of type int, int64, uint64, bool or string — without reflection or a
// per-event allocation. It reports false, with dst's contents unchanged,
// for anything else.
func appendPlainEvent(dst []byte, ev Event) ([]byte, bool) {
	if !plain(ev.Name) || !plainByte(ev.Ph) {
		return dst, false
	}
	out := append(dst, `{"name":"`...)
	out = append(out, ev.Name...)
	out = append(out, `","ph":"`...)
	out = append(out, ev.Ph)
	out = append(out, `","ts":`...)
	out = strconv.AppendInt(out, ev.Ts, 10)
	if ev.Ph == PhaseComplete {
		out = append(out, `,"dur":`...)
		out = strconv.AppendInt(out, ev.Dur, 10)
	}
	out = append(out, `,"pid":`...)
	out = strconv.AppendInt(out, ev.Pid, 10)
	out = append(out, `,"tid":`...)
	out = strconv.AppendInt(out, ev.Tid, 10)
	if ev.Ph == PhaseInstant {
		out = append(out, `,"s":"t"`...)
	}
	if len(ev.Args) > 0 {
		var buf [8]string
		keys := buf[:0]
		for k := range ev.Args {
			if !plain(k) {
				return dst, false
			}
			keys = append(keys, k)
		}
		slices.Sort(keys)
		sep := `,"args":{"`
		for _, k := range keys {
			out = append(out, sep...)
			out = append(out, k...)
			out = append(out, `":`...)
			switch v := ev.Args[k].(type) {
			case int:
				out = strconv.AppendInt(out, int64(v), 10)
			case int64:
				out = strconv.AppendInt(out, v, 10)
			case uint64:
				out = strconv.AppendUint(out, v, 10)
			case bool:
				out = strconv.AppendBool(out, v)
			case string:
				if !plain(v) {
					return dst, false
				}
				out = append(out, '"')
				out = append(out, v...)
				out = append(out, '"')
			default:
				return dst, false
			}
			sep = `,"`
		}
		out = append(out, '}')
	}
	return append(out, '}'), true
}

// plain reports whether encoding/json writes s between quotes as it is.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// plainByte: printable ASCII, less what JSON escapes and what
// encoding/json escapes for HTML's sake.
func plainByte(c byte) bool {
	return 0x20 <= c && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Close finishes a streaming sink's document and flushes it to the writer,
// which is left open. It returns the first write error, or the refusal of
// an event emitted after Close. Close is idempotent, and a no-op on a sink
// that keeps its events.
func (s *Sink) Close() error {
	if s == nil || s.w == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.err == nil {
		_, s.err = s.w.WriteString(jsonTail)
	}
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}

// WriteJSON writes the kept events to w the way a streaming sink would
// have written them as they were emitted: the same document, byte for
// byte. The trace_event format does not require sorting.
func (s *Sink) WriteJSON(w io.Writer) error {
	out := NewStreamSink(w, 0)
	for _, ev := range s.Events() {
		out.Emit(ev)
	}
	return out.Close()
}

// ParseJSON reads a trace document back into events, preserving
// order. It exists for tests and offline tooling; numeric args come back as
// float64 per encoding/json.
func ParseJSON(r io.Reader) ([]Event, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	out := make([]Event, len(jt.TraceEvents))
	for i, je := range jt.TraceEvents {
		if len(je.Ph) != 1 {
			return nil, fmt.Errorf("trace: event %d has invalid phase %q", i, je.Ph)
		}
		ev := Event{Name: je.Name, Ph: je.Ph[0], Ts: je.Ts, Pid: je.Pid, Tid: je.Tid, Args: je.Args}
		if je.Dur != nil {
			ev.Dur = *je.Dur
		}
		out[i] = ev
	}
	return out, nil
}
