package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
)

// wireEvent is the reference wire form of one record: what encoding/json
// writes for the event's fields, with its args as a map.
type wireEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// value is a's value as an int64, uint64, bool or string.
func (a Arg) value() any {
	switch a.kind {
	case kindInt:
		return int64(a.num)
	case kindUint:
		return a.num
	case kindBool:
		return a.num != 0
	}
	return a.str
}

// toWire converts one event to its reference wire form.
func toWire(ev Event) wireEvent {
	we := wireEvent{Name: ev.Name, Ph: string(rune(ev.Ph)), Ts: ev.Ts, Pid: ev.Pid, Tid: ev.Tid}
	if ev.Ph == PhaseComplete {
		we.Dur = &ev.Dur
	}
	if ev.Ph == PhaseInstant {
		we.S = "t" // thread-scoped instant
	}
	if len(ev.Args) > 0 {
		we.Args = map[string]any{}
		for _, a := range ev.Args {
			we.Args[a.Key] = a.value()
		}
	}
	return we
}

// checkAppendEvent holds appendEvent to its definition for one event:
// json.Marshal of the reference wire form, appended after whatever dst
// already held.
func checkAppendEvent(t *testing.T, ev Event) {
	t.Helper()
	want, err := json.Marshal(toWire(ev))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendEvent([]byte("prefix"), &ev, ev.Args); string(got) != "prefix"+string(want) {
		t.Fatalf("%+v:\nappendEvent  %s\njson.Marshal %s", ev, got[len("prefix"):], want)
	}
}

func TestAppendEventMatchesJSON(t *testing.T) {
	for _, ev := range []Event{
		{},
		{Name: "epoch", Ph: PhaseComplete, Ts: 120, Dur: 0, Pid: 1},
		{Name: "slice", Ph: PhaseComplete, Ts: 5, Dur: 2000, Pid: 3, Tid: 2, Args: []Arg{Int("tid", 2), Uint("retired", 1<<63)}},
		{Name: "divergence", Ph: PhaseInstant, Ts: math.MaxInt64, Pid: math.MinInt64, Tid: -1,
			Args: []Arg{Int("epoch", 4), String("kind", "state"), Int("pages", 17), Int("lag", int64(-3)), Bool("write", true), Bool("read", false)}},
		{Name: "log.bytes", Ph: PhaseCounter, Ts: 9, Pid: 2, Args: []Arg{Int("value", int64(4096))}},
		{Name: "process_name", Ph: PhaseMeta, Pid: 1, Args: []Arg{String("name", "record fft (4 workers)")}},
		{Name: "empty args", Ph: PhaseInstant, Args: []Arg{}},
		{Name: "extremes", Ph: PhaseInstant, Args: []Arg{
			Int("min", int64(math.MinInt64)), Int("max", int64(math.MaxInt64)), Uint("umax", math.MaxUint64), Uint("zero", 0), Int("neg", -7)}},
		// Keys out of order, past the encoder's stack buffer, and repeated:
		// of a repeated key the last value counts, as in a map.
		{Name: "many", Ph: PhaseInstant, Args: []Arg{
			Int("k", 1), Int("j", 2), Int("i", 3), Int("h", 4), Int("g", 5), Int("f", 6), Int("e", 7), Int("d", 8),
			Int("c", 9), Int("b", 10), Int("a", 11), Int("B", 12), Int("", 13), Int("aa", 14)}},
		{Name: "repeat", Ph: PhaseInstant, Args: []Arg{Int("x", 1), String("y", "a"), Bool("x", true), Int("a", 0), Uint("x", 3)}},
		// What the direct encoder hands to json.Marshal.
		{Name: `quo"te`, Ph: PhaseInstant},
		{Name: `back\slash`, Ph: PhaseInstant},
		{Name: "<html>&", Ph: PhaseInstant},
		{Name: "tab\there", Ph: PhaseInstant},
		{Name: "del\x7f", Ph: PhaseInstant},
		{Name: "héllo \u2028", Ph: PhaseInstant},
		{Name: "bad utf8 \xff", Ph: PhaseInstant},
		{Name: "ph", Ph: '"'},
		{Name: "ph", Ph: 0},
		{Name: "ph", Ph: 0xe9},
		{Name: "key", Ph: PhaseInstant, Args: []Arg{Int("a<b", 1), Int("a", 2), Bool("é", false)}},
		{Name: "value", Ph: PhaseInstant, Args: []Arg{String("reason", "line\nbreak"), Int("n", 1), String("html", "</script>&"), String("bad", "\xff\xfe")}},
	} {
		checkAppendEvent(t, ev)
	}
}

// FuzzAppendEvent is the same comparison over arbitrary names, phases,
// numbers, keys and values of every argument kind, keys in either order.
func FuzzAppendEvent(f *testing.F) {
	f.Add("slice", byte(PhaseComplete), int64(5), int64(2000), int64(3), int64(2), "tid", "retired", "", int64(2), uint8(0))
	f.Add("divergence", byte(PhaseInstant), int64(1)<<40, int64(0), int64(1), int64(0), "kind", "epoch", "state", int64(-4), uint8(1))
	f.Add("a\"b", byte(PhaseMeta), int64(-1), int64(-1), int64(-1), int64(-1), "na<me", "", "x\\y\u2028", int64(0), uint8(2))
	f.Add("", byte(0xff), int64(0), int64(0), int64(0), int64(0), "k", "k", "\xff", int64(1), uint8(3))
	f.Fuzz(func(t *testing.T, name string, ph byte, ts, dur, pid, tid int64, k1, k2, sval string, ival int64, kind uint8) {
		ev := Event{Name: name, Ph: ph, Ts: ts, Dur: dur, Pid: pid, Tid: tid}
		if kind&0x80 == 0 {
			var v Arg
			switch kind % 4 {
			case 0:
				v = Int(k2, ival)
			case 1:
				v = Uint(k2, uint64(ival))
			case 2:
				v = Bool(k2, ival&1 == 0)
			case 3:
				v = String(k2, sval)
			}
			ev.Args = []Arg{String(k1, sval), v}
			if kind&0x40 != 0 {
				ev.Args[0], ev.Args[1] = ev.Args[1], ev.Args[0]
			}
		}
		checkAppendEvent(t, ev)
	})
}

// TestWriteJSONMatchesEncoder: a keeping sink's events spliced into a
// streaming one make the document json.Encoder writes for the container
// struct, with each event re-homed onto the splice's track.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		child := NewSink()
		wire := []wireEvent{}
		for i := 0; i < n; i++ {
			args := []Arg{String("why", "a<b"), Int("tid", i)}
			child.Span("slice", int64(i), 10, 0, int64(i), args)
			wire = append(wire, toWire(Event{Name: "slice", Ph: PhaseComplete, Ts: int64(i) + 5, Dur: 10, Pid: 1, Tid: 7, Args: args}))
		}
		var want, got bytes.Buffer
		doc := struct {
			TraceEvents     []wireEvent `json:"traceEvents"`
			DisplayTimeUnit string      `json:"displayTimeUnit"`
		}{wire, "ms"}
		if err := json.NewEncoder(&want).Encode(doc); err != nil {
			t.Fatal(err)
		}
		s := NewStreamSink(&got, 0)
		s.Splice(child, 5, 1, 7)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%d events:\nSplice       %s\njson.Encoder %s", n, got.String(), want.String())
		}
	}
}

// emitMix emits the recorder's commonest events the way its emitters do,
// on the concrete sink behind an Enabled guard: a timeslice span, a
// counter sample, an instant with a string.
func emitMix(s *Sink, i int64) {
	if !s.Enabled() {
		return
	}
	switch i % 4 {
	case 0, 1:
		s.Span("slice", i, 2000, 1, i&3, []Arg{Int("tid", i&3), Uint("retired", 2000)})
	case 2:
		s.Counter("log.bytes", i, 1, i*40)
	case 3:
		s.Instant("checkpoint", i, 1, 0, []Arg{Int("epoch", i), Int("pages", 12), String("reason", "boundary")})
	}
}

// BenchmarkEmit is what one event costs its emitter, by destination: the
// disabled sink (the guard every hot path takes), a sink that keeps its
// events, and the stream a daemon job writes, encoding included.
func BenchmarkEmit(b *testing.B) {
	for _, tc := range []struct {
		name string
		sink func() *Sink
	}{
		{"nil", func() *Sink { return nil }},
		{"buffered", NewSink},
		{"streamed", func() *Sink { return NewStreamSink(io.Discard, 0) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := tc.sink()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emitMix(s, int64(i))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
