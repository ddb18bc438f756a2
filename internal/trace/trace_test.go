package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestNilSinkIsSafeAndFree(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	// Every method must be a no-op on nil.
	s.Span("a", 0, 1, 0, 0, nil)
	s.Instant("b", 0, 0, 0, nil)
	s.Counter("c", 0, 0, 1)
	s.NameThread(0, 0, "t")
	s.Splice(NewSink(), 0, 0, 0)
	if s.AllocPid("p") != 0 || s.Len() != 0 || s.Close() != nil {
		t.Fatal("nil sink leaked state")
	}
	// The disabled hot path must not allocate: this is the invariant that
	// lets every scheduler call site run untraced at zero cost.
	allocs := testing.AllocsPerRun(100, func() {
		if s.Enabled() {
			s.Span("slice", 0, 1, 0, 0, []Arg{Int("tid", 1)})
		}
	})
	if allocs != 0 {
		t.Fatalf("nil sink allocates %.0f per op", allocs)
	}
}

func TestJSONRoundTripPreservesOrderAndFields(t *testing.T) {
	s := NewSink()
	pid := s.AllocPid("record test")
	if pid != 1 {
		t.Fatalf("first pid = %d", pid)
	}
	s.NameThread(pid, 0, "epochs")
	s.Span("epoch", 100, 50, pid, 0, []Arg{Int("epoch", 0)})
	s.Instant("divergence", 125, pid, 0, []Arg{Int("epoch", -1), String("kind", "state"), Bool("skip", true), Uint("retired", math.MaxUint64)})
	s.Counter("log.syscalls", 150, pid, 7)
	s.Span("epoch", 150, 60, pid, 0, []Arg{String("why", "a<b\n"), Bool("adopt", false), Int("epoch", int64(math.MinInt64))})

	wire := string(writeJSON(t, s))
	got, err := ParseJSON(strings.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	want := s.kept()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Ph != want[i].Ph ||
			got[i].Ts != want[i].Ts || got[i].Dur != want[i].Dur ||
			got[i].Pid != want[i].Pid || got[i].Tid != want[i].Tid {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
		// The wire holds args in key order and an integer without its
		// signedness: a Uint within the int64 range reads back as an Int.
		args := slices.Clone(want[i].Args)
		slices.SortFunc(args, func(a, b Arg) int { return strings.Compare(a.Key, b.Key) })
		if len(got[i].Args) != len(args) {
			t.Fatalf("event %d: args %+v, want %+v", i, got[i].Args, args)
		}
		for k, a := range args {
			if g := got[i].Args[k]; g.Key != a.Key || g.value() != a.value() {
				t.Fatalf("event %d: arg %d is %+v, want %+v", i, k, g, a)
			}
		}
	}
	// Span durations and instant scope must survive the wire format.
	if got[2].Dur != 50 {
		t.Fatalf("span dur = %d", got[2].Dur)
	}
	if !strings.Contains(wire, `"s":"t"`) {
		t.Fatal("instant lost its thread scope")
	}
	if !strings.Contains(wire, `"displayTimeUnit":"ms"`) {
		t.Fatal("missing displayTimeUnit")
	}
	if name, ok := got[0].Str("name"); !ok || name != "record test" {
		t.Fatalf("process name %q, %v", name, ok)
	}
	if n, ok := got[3].Int("epoch"); !ok || n != -1 {
		t.Fatalf("divergence epoch %d, %v", n, ok)
	}
	if _, ok := got[3].Int("retired"); ok {
		t.Fatal("a uint64 past the int64 range read as an int64")
	}
	// And what was parsed writes the same document again.
	again := NewSink()
	for _, ev := range got {
		again.add(ev, ev.Args)
	}
	if w2 := writeJSON(t, again); string(w2) != wire {
		t.Fatalf("re-written:\n%s\nwant:\n%s", w2, wire)
	}
	// No sink writes a value that is not an integer, a bool or a string.
	for _, bad := range []string{`1.5`, `null`, `{}`, `[1]`, `1e3`, `18446744073709551616`} {
		doc := `{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":0,"tid":0,"args":{"a":` + bad + `}}]}`
		if _, err := ParseJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("args value %s parsed", bad)
		}
	}
}

func TestSpliceShiftsAndRehomes(t *testing.T) {
	child := NewSink()
	child.Span("slice", 10, 5, 0, 0, []Arg{Int("tid", 2)})
	child.Instant("signal", 12, 0, 0, nil)
	child.Counter("n", 14, 0, 3)

	var buf bytes.Buffer
	parent := NewStreamSink(&buf, 0)
	pid := parent.AllocPid("p")
	parent.Splice(child, 1000, pid, 7)
	if err := parent.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs = evs[1:] // skip the process_name meta
	if evs[0].Ts != 1010 || evs[0].Pid != pid || evs[0].Tid != 7 {
		t.Fatalf("spliced span: %+v", evs[0])
	}
	if evs[1].Ts != 1012 || evs[1].Tid != 7 {
		t.Fatalf("spliced instant: %+v", evs[1])
	}
	// Counters shift in time but keep their own track semantics.
	if evs[2].Ts != 1014 || evs[2].Tid != 0 {
		t.Fatalf("spliced counter: %+v", evs[2])
	}
}

func TestRegistryAggregates(t *testing.T) {
	r := NewRegistry()
	wl := Label("workload", "pbzip")
	r.Add("record.epochs", 40, wl)
	r.Add("record.epochs", 2, wl)
	r.Set("record.completion_cycles", 1150271, wl)
	for _, v := range []int64{100, 200, 400, 800} {
		r.Observe("epoch.cycles", v, wl)
	}
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`doubleplay_record_epochs{workload="pbzip"} 42`,
		`doubleplay_record_completion_cycles{workload="pbzip"} 1.150271e+06`,
		`doubleplay_epoch_cycles_sum{workload="pbzip"} 1500`,
		`doubleplay_epoch_cycles_count{workload="pbzip"} 4`,
	} {
		if !hasLine(prom.String(), want) {
			t.Fatalf("WritePrometheus has no line %q in:\n%s", want, prom.String())
		}
	}

	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"counter  record.epochs{workload=pbzip}",
		"gauge    record.completion_cycles{workload=pbzip}",
		"hist     epoch.cycles{workload=pbzip}",
		"count=4 sum=1500 min=100 mean=375 p50<=255 p90<=511 max=800",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q in:\n%s", want, out)
		}
	}

	var h Histogram
	for _, v := range []int64{100, 200, 400, 800} {
		h.observe(v)
	}
	if q := h.Quantile(1); q != 800 {
		t.Fatalf("p100 = %d", q)
	}
	if q := h.Quantile(0); q < 100 || q > 127 {
		t.Fatalf("p0 = %d, want bucket bound of 100", q)
	}
}

// hasLine reports whether text holds line as one whole line.
func hasLine(text, line string) bool {
	return slices.Contains(strings.Split(text, "\n"), line)
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Add("a", 1)
	r.Set("b", 2)
	r.Observe("c", 3)
	var buf bytes.Buffer
	r.Render(&buf)
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, %v", buf.String(), err)
	}
}
