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
// behind Enabled(). A streaming sink allocates nothing per event either:
// arguments are a typed list ([Arg]) that stays on the emitter's stack.
//
// Traces are Chrome trace_event JSON, written in emission order as the run
// goes ([NewStreamSink]); a keeping sink ([NewSink]) buffers events until
// [Sink.Splice] writes them into another sink, which a streaming sink
// encodes byte for byte as if they had been emitted there. [ParseJSON]
// reads a document back into events. Traces load directly
// into Perfetto (https://ui.perfetto.dev) or chrome://tracing; one trace
// microsecond equals one simulated cycle. The metrics [Registry] renders
// as aligned text ([Registry.Render]) or the Prometheus text format
// ([Registry.WritePrometheus], servable over HTTP via
// [Registry.Handler]/[ServeMetrics]). The full event schema is documented
// in docs/OBSERVABILITY.md.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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
	// Args are written with their keys sorted; where a key repeats, the
	// last one counts. A kept event's Args belong to its sink: read them,
	// never write them.
	Args []Arg
}

// Arg is one named event argument: a signed or unsigned integer, a bool or
// a string, made by [Int], [Uint], [Bool] or [String]. An argument list is
// a plain slice, and no sink holds on to the one it is given — a streaming
// sink encodes it where it is, a keeping one copies it into a slab it owns
// — so an emitter's literal stays on the emitter's stack.
type Arg struct {
	Key  string
	kind argKind
	num  uint64 // kindInt as two's complement, kindUint, kindBool as 0 or 1
	str  string // kindString
}

type argKind uint8

const (
	kindInt argKind = iota
	kindUint
	kindBool
	kindString
)

// Int is a signed integer argument.
func Int[T ~int | ~int64](key string, v T) Arg {
	return Arg{Key: key, kind: kindInt, num: uint64(v)}
}

// Uint is an unsigned integer argument.
func Uint(key string, v uint64) Arg { return Arg{Key: key, kind: kindUint, num: v} }

// Bool is a boolean argument.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// String is a string argument.
func String(key, v string) Arg { return Arg{Key: key, kind: kindString, str: v} }

// arg returns the last argument of ev named key.
func (ev *Event) arg(key string) (Arg, bool) {
	for i := len(ev.Args) - 1; i >= 0; i-- {
		if ev.Args[i].Key == key {
			return ev.Args[i], true
		}
	}
	return Arg{}, false
}

// Int returns the integer argument named key: an [Int], or a [Uint] that
// fits an int64.
func (ev *Event) Int(key string) (int64, bool) {
	a, ok := ev.arg(key)
	if ok && (a.kind == kindInt || a.kind == kindUint && a.num <= math.MaxInt64) {
		return int64(a.num), true
	}
	return 0, false
}

// Str returns the string argument named key.
func (ev *Event) Str(key string) (string, bool) {
	a, ok := ev.arg(key)
	return a.str, ok && a.kind == kindString
}

// Recorder is the type of core.Options.Trace, and [*Sink] its only
// implementation: the field stays an interface because the benchmark
// harness type-asserts it back to a sink. Everything below the options
// holds the *Sink itself. The compiler sees into its methods, as it cannot
// into an interface's, and so keeps an argument list built for a call on
// the caller's stack.
type Recorder interface{ sink() *Sink }

func (s *Sink) sink() *Sink { return s }

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
	slab    []Arg         // a keeping sink's current chunk of kept arguments
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

// Enabled reports whether events are being collected. Hot paths check it
// before computing arguments, so the nil sink costs nothing.
func (s *Sink) Enabled() bool { return s != nil }

// add emits ev with args as its arguments, in place of ev.Args. The two
// travel apart so that args, unlike an event a keeping sink stores, never
// reaches the heap.
func (s *Sink) add(ev Event, args []Arg) {
	s.mu.Lock()
	s.addLocked(ev, args)
	s.mu.Unlock()
}

// addLocked keeps ev, or writes it to the stream after the events before
// it. Once a write has failed, events are counted but not written.
func (s *Sink) addLocked(ev Event, args []Arg) {
	if s.closed {
		if s.err == nil {
			s.err = errors.New("trace: emit on closed sink")
		}
		return
	}
	s.n++
	if s.w == nil {
		s.keepLocked(ev, args)
		return
	}
	if s.err != nil {
		return
	}
	s.enc = s.enc[:0]
	if s.n > 1 {
		s.enc = append(s.enc, ',')
	}
	s.enc = appendEvent(s.enc, &ev, args)
	_, s.err = s.w.Write(s.enc)
}

// Slab chunks start small, for the child sinks that hold one epoch, and
// double up to a bound, for sinks that keep a whole run.
const (
	minSlab = 16
	maxSlab = 4096
)

// keepLocked stores ev with a copy of args carved from the slab. A full
// chunk is left to the events that point into it, and a new one begun.
func (s *Sink) keepLocked(ev Event, args []Arg) {
	ev.Args = nil
	if len(args) > 0 {
		if cap(s.slab)-len(s.slab) < len(args) {
			s.slab = make([]Arg, 0, max(len(args), min(2*cap(s.slab), maxSlab), minSlab))
		}
		n := len(s.slab)
		s.slab = append(s.slab, args...)
		ev.Args = s.slab[n:len(s.slab):len(s.slab)]
	}
	s.events = append(s.events, ev)
}

// Span emits a complete event covering [ts, ts+dur).
func (s *Sink) Span(name string, ts, dur, pid, tid int64, args []Arg) {
	if s == nil {
		return
	}
	s.add(Event{Name: name, Ph: PhaseComplete, Ts: ts, Dur: dur, Pid: pid, Tid: tid}, args)
}

// Instant emits a point event at ts.
func (s *Sink) Instant(name string, ts, pid, tid int64, args []Arg) {
	if s == nil {
		return
	}
	s.add(Event{Name: name, Ph: PhaseInstant, Ts: ts, Pid: pid, Tid: tid}, args)
}

// Counter emits a sampled counter value; viewers render the series named
// name as a step function over time.
func (s *Sink) Counter(name string, ts, pid int64, value int64) {
	if s == nil {
		return
	}
	s.add(Event{Name: name, Ph: PhaseCounter, Ts: ts, Pid: pid}, []Arg{Int("value", value)})
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
	s.addLocked(Event{Name: "process_name", Ph: PhaseMeta, Pid: pid}, []Arg{String("name", name)})
	s.mu.Unlock()
	return pid
}

// NameThread names one track within a process.
func (s *Sink) NameThread(pid, tid int64, name string) {
	if s == nil {
		return
	}
	s.add(Event{Name: "thread_name", Ph: PhaseMeta, Pid: pid, Tid: tid}, []Arg{String("name", name)})
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
	evs := child.kept()
	s.mu.Lock()
	for _, ev := range evs {
		ev.Ts += shift
		ev.Pid = pid
		if ev.Ph != PhaseCounter && ev.Ph != PhaseMeta {
			ev.Tid = tid
		}
		s.addLocked(ev, ev.Args)
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

// Reset empties a keeping sink so it can buffer again: the events it
// kept are dropped and the next ones are stored in the space they took,
// so a child buffer reset before each epoch stops allocating once it has
// held the largest. A streaming sink, whose events are already written,
// ignores Reset.
func (s *Sink) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.w == nil {
		s.nextPid, s.n = 1, 0
		s.events, s.slab = s.events[:0], s.slab[:0]
	}
	s.mu.Unlock()
}

// kept returns the kept events without copying them. A kept event is not
// written again until Reset, and later ones land past the returned
// length, so the slice stays valid after the lock is released.
func (s *Sink) kept() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events[:len(s.events):len(s.events)]
}

// appendEvent appends the wire form of ev, with args as its arguments, to
// dst: byte for byte what encoding/json writes for the same record, args
// as a map. Every trace document is written through here. Names, keys and
// string values that JSON copies through unescaped are appended as they
// are; any other string goes through json.Marshal.
func appendEvent(dst []byte, ev *Event, args []Arg) []byte {
	out := append(dst, `{"name":`...)
	out = appendString(out, ev.Name)
	out = append(out, `,"ph":`...)
	if plainByte(ev.Ph) {
		out = append(out, '"', ev.Ph, '"')
	} else {
		out = appendString(out, string(rune(ev.Ph)))
	}
	out = append(out, `,"ts":`...)
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
	if len(args) > 0 {
		var buf [8]int
		order := buf[:0]
		for i := range args {
			order = append(order, i)
		}
		// Insertion sort: stable, so of a repeated key the last is last,
		// and allocation-free for the few arguments an event carries.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && args[order[j]].Key < args[order[j-1]].Key; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		sep := `,"args":{`
		for i, k := range order {
			a := &args[k]
			if i+1 < len(order) && args[order[i+1]].Key == a.Key {
				continue // a map keeps the last value
			}
			out = append(out, sep...)
			out = appendString(out, a.Key)
			out = append(out, ':')
			switch a.kind {
			case kindInt:
				out = strconv.AppendInt(out, int64(a.num), 10)
			case kindUint:
				out = strconv.AppendUint(out, a.num, 10)
			case kindBool:
				out = strconv.AppendBool(out, a.num != 0)
			default:
				out = appendString(out, a.str)
			}
			sep = `,`
		}
		out = append(out, '}')
	}
	return append(out, '}')
}

// appendString appends s as a JSON string: between quotes as it is, or as
// json.Marshal escapes it. The copy handed to json.Marshal keeps s's bytes
// from escaping, and with them the arguments of every emitter.
func appendString(dst []byte, s string) []byte {
	if plain(s) {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	b, _ := json.Marshal(strings.Clone(s)) // a string always marshals
	return append(dst, b...)
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

// jsonEvent is the wire form of one Chrome trace_event record, as
// ParseJSON reads it.
type jsonEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   int64    `json:"ts"`
	Dur  *int64   `json:"dur"`
	Pid  int64    `json:"pid"`
	Tid  int64    `json:"tid"`
	Args jsonArgs `json:"args"`
}

// jsonArgs reads an args object into arguments in the order of its keys.
type jsonArgs []Arg

// UnmarshalJSON makes an integer an Int, or a Uint past the int64 range;
// true and false a Bool; a string a String. No sink writes any other value,
// so any other is an error.
func (a *jsonArgs) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return fmt.Errorf("args %.20s are not an object", b)
	}
	for dec.More() { // the outer decoder has checked the syntax
		tok, _ := dec.Token()
		key := tok.(string)
		tok, _ = dec.Token()
		switch v := tok.(type) {
		case json.Number:
			if n, err := strconv.ParseInt(string(v), 10, 64); err == nil {
				*a = append(*a, Int(key, n))
			} else if u, err := strconv.ParseUint(string(v), 10, 64); err == nil {
				*a = append(*a, Uint(key, u))
			} else {
				return fmt.Errorf("arg %q: %s is not a 64-bit integer", key, v)
			}
		case bool:
			*a = append(*a, Bool(key, v))
		case string:
			*a = append(*a, String(key, v))
		default:
			return fmt.Errorf("arg %q is neither an integer, a bool nor a string", key)
		}
	}
	return nil
}

// ParseJSON reads a trace document back into events, preserving the order
// of the events and of each one's args.
func ParseJSON(r io.Reader) ([]Event, error) {
	var jt struct {
		TraceEvents []jsonEvent `json:"traceEvents"`
	}
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
