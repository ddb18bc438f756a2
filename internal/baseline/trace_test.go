package baseline_test

import (
	"bytes"
	"reflect"
	"testing"

	"doubleplay/internal/baseline"
	"doubleplay/internal/trace"
	"doubleplay/internal/workloads"
)

func rebuild(t *testing.T, name string, workers int) *workloads.Built {
	t.Helper()
	wl := workloads.Get(name)
	if wl == nil {
		t.Fatalf("unknown workload %s", name)
	}
	return wl.Build(workloads.Params{Workers: workers, Scale: 1, Seed: 11})
}

// eventNames closes sink, a stream into out, and tallies the events it
// wrote by name.
func eventNames(t *testing.T, sink *trace.Sink, out *bytes.Buffer) map[string]int {
	t.Helper()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ParseJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range evs {
		names[ev.Name]++
	}
	return names
}

// TestCrewTracingBitIdentical extends the recorder's traced-vs-untraced
// guard to the CREW baseline: tracing only reads clocks, so every reported
// number must be bit-identical with and without a live sink.
func TestCrewTracingBitIdentical(t *testing.T) {
	bt := rebuild(t, "ocean", 4)
	plain, err := baseline.RunCREW(bt.Prog, bt.World, 4, 23, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sink := trace.NewStreamSink(&out, 0)
	bt2 := rebuild(t, "ocean", 4)
	traced, err := baseline.RunCREW(bt2.Prog, bt2.World, 4, 23, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing perturbed the CREW baseline:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if sink.Len() == 0 {
		t.Fatal("traced run produced no events")
	}
	names := eventNames(t, sink, &out)
	for _, want := range []string{"baseline.crew.run", "crew.fault", "crew.transitions", "baseline.crew.done"} {
		if names[want] == 0 {
			t.Errorf("no %q events; saw %v", want, names)
		}
	}
	if int64(names["crew.fault"]) != traced.Transitions {
		t.Errorf("%d crew.fault instants for %d transitions", names["crew.fault"], traced.Transitions)
	}
}

// TestUniprocessorTracingBitIdentical is the same guard for the
// uniprocessor baseline.
func TestUniprocessorTracingBitIdentical(t *testing.T) {
	bt := rebuild(t, "fft", 4)
	plain, err := baseline.RunUniprocessor(bt.Prog, bt.World, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sink := trace.NewStreamSink(&out, 0)
	bt2 := rebuild(t, "fft", 4)
	traced, err := baseline.RunUniprocessor(bt2.Prog, bt2.World, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing perturbed the uniprocessor baseline:\nplain  %+v\ntraced %+v", plain, traced)
	}
	names := eventNames(t, sink, &out)
	if names["baseline.uni.slice"] == 0 || names["baseline.uni.done"] != 1 {
		t.Fatalf("unexpected uni trace vocabulary: %v", names)
	}
}

// TestBaselinesStreamable runs both baselines against a streaming sink,
// checking the streaming sink end to end outside the recorder proper.
func TestBaselinesStreamable(t *testing.T) {
	var buf writeCounter
	stream := trace.NewStreamSink(&buf, 0)
	bt := rebuild(t, "radix", 2)
	if _, err := baseline.RunCREW(bt.Prog, bt.World, 2, 23, nil, stream); err != nil {
		t.Fatal(err)
	}
	bt2 := rebuild(t, "radix", 2)
	if _, err := baseline.RunUniprocessor(bt2.Prog, bt2.World, nil, stream); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if stream.Len() == 0 || buf.n == 0 {
		t.Fatal("nothing streamed")
	}
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
