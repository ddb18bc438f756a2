package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
)

// checkAppendEvent holds appendEvent to its definition for one event:
// json.Marshal of the wire struct, bytes and error alike, appended after
// whatever dst already held.
func checkAppendEvent(t *testing.T, ev Event) {
	t.Helper()
	want, wantErr := json.Marshal(toJSONEvent(ev))
	got, err := appendEvent([]byte("prefix"), ev)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: appendEvent error %v, json.Marshal error %v", ev, err, wantErr)
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("%+v:\nappendEvent  %s\njson.Marshal %s", ev, got[len("prefix"):], want)
	}
}

type namedString string

func TestAppendEventMatchesJSON(t *testing.T) {
	for _, ev := range []Event{
		{},
		{Name: "epoch", Ph: PhaseComplete, Ts: 120, Dur: 0, Pid: 1},
		{Name: "slice", Ph: PhaseComplete, Ts: 5, Dur: 2000, Pid: 3, Tid: 2, Args: map[string]any{"tid": 2, "retired": uint64(1 << 63)}},
		{Name: "divergence", Ph: PhaseInstant, Ts: math.MaxInt64, Pid: math.MinInt64, Tid: -1,
			Args: map[string]any{"epoch": 4, "kind": "state", "pages": 17, "lag": int64(-3), "write": true, "read": false}},
		{Name: "log.bytes", Ph: PhaseCounter, Ts: 9, Pid: 2, Args: map[string]any{"value": int64(4096)}},
		{Name: "process_name", Ph: PhaseMeta, Pid: 1, Args: map[string]any{"name": "record fft (4 workers)"}},
		{Name: "empty args", Ph: PhaseInstant, Args: map[string]any{}},
		{Name: "many", Ph: PhaseInstant, Args: map[string]any{
			"k": 1, "j": 2, "i": 3, "h": 4, "g": 5, "f": 6, "e": 7, "d": 8, "c": 9, "b": 10, "a": 11, "B": 12, "": 13, "aa": 14}},
		// What the direct encoder hands to encoding/json.
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
		{Name: "key", Ph: PhaseInstant, Args: map[string]any{"a<b": 1, "a": 2}},
		{Name: "value", Ph: PhaseInstant, Args: map[string]any{"reason": "line\nbreak", "n": 1}},
		{Name: "float", Ph: PhaseInstant, Args: map[string]any{"x": 1.5}},
		{Name: "nil", Ph: PhaseInstant, Args: map[string]any{"x": nil}},
		{Name: "named", Ph: PhaseInstant, Args: map[string]any{"x": namedString("certified"), "y": int32(7), "z": uint8(1)}},
		{Name: "nested", Ph: PhaseInstant, Args: map[string]any{"x": map[string]any{"y": []int{1, 2}}}},
		// And what encoding/json refuses.
		{Name: "NaN", Ph: PhaseInstant, Args: map[string]any{"x": math.NaN()}},
		{Name: "chan", Ph: PhaseInstant, Args: map[string]any{"a": 1, "x": make(chan int)}},
	} {
		checkAppendEvent(t, ev)
	}
}

// FuzzAppendEvent is the same comparison over arbitrary names, phases,
// numbers, keys and values of every kind the encoder distinguishes.
func FuzzAppendEvent(f *testing.F) {
	f.Add("slice", byte(PhaseComplete), int64(5), int64(2000), int64(3), int64(2), "tid", "retired", "", int64(2), uint8(0))
	f.Add("divergence", byte(PhaseInstant), int64(1)<<40, int64(0), int64(1), int64(0), "kind", "epoch", "state", int64(-4), uint8(1))
	f.Add("a\"b", byte(PhaseMeta), int64(-1), int64(-1), int64(-1), int64(-1), "na<me", "", "x\\y\u2028", int64(0), uint8(2))
	f.Add("", byte(0xff), int64(0), int64(0), int64(0), int64(0), "k", "k", "\xff", int64(1), uint8(3))
	f.Fuzz(func(t *testing.T, name string, ph byte, ts, dur, pid, tid int64, k1, k2, sval string, ival int64, kind uint8) {
		ev := Event{Name: name, Ph: ph, Ts: ts, Dur: dur, Pid: pid, Tid: tid}
		if kind&0x80 == 0 {
			var v any
			switch kind % 8 {
			case 0:
				v = int(ival)
			case 1:
				v = ival
			case 2:
				v = uint64(ival)
			case 3:
				v = ival&1 == 0
			case 4:
				v = float64(ival) / 3
			case 5:
				v = namedString(sval)
			case 6:
				v = []any{sval, ival}
			}
			ev.Args = map[string]any{k1: sval, k2: v}
		}
		checkAppendEvent(t, ev)
	})
}

// TestWriteJSONMatchesEncoder: the buffered document is still what
// json.Encoder wrote for the container struct.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		s := NewSink()
		wire := []jsonEvent{}
		for i := 0; i < n; i++ {
			s.Span("slice", int64(i), 10, 1, int64(i), map[string]any{"tid": i, "why": "a<b"})
		}
		for _, ev := range s.Events() {
			wire = append(wire, toJSONEvent(ev))
		}
		var want, got bytes.Buffer
		if err := json.NewEncoder(&want).Encode(jsonTrace{TraceEvents: wire, DisplayTimeUnit: "ms"}); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%d events:\nWriteJSON    %s\njson.Encoder %s", n, got.String(), want.String())
		}
	}
}

// BenchmarkEmit is what one event costs its emitter, by destination: the
// disabled sink (the guard every hot path takes), the in-memory buffer,
// and the stream a daemon job writes, encoding included. The events are
// the recorder's commonest: a timeslice span, a counter sample, an instant
// with a string.
func BenchmarkEmit(b *testing.B) {
	emit := func(r Recorder, i int64) {
		if !Enabled(r) {
			return
		}
		switch i % 4 {
		case 0, 1:
			r.Span("slice", i, 2000, 1, i&3, map[string]any{"tid": int(i & 3), "retired": uint64(2000)})
		case 2:
			r.Counter("log.bytes", i, 1, i*40)
		case 3:
			r.Instant("checkpoint", i, 1, 0, map[string]any{"epoch": int(i), "pages": 12, "reason": "boundary"})
		}
	}
	for _, tc := range []struct {
		name string
		sink func() Recorder
	}{
		{"nil", func() Recorder { return (*Sink)(nil) }},
		{"buffered", func() Recorder { return NewSink() }},
		{"streamed", func() Recorder { return NewStreamSink(io.Discard, 0) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := tc.sink()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emit(r, int64(i))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
