package dptrace

import (
	"bytes"
	"strings"
	"testing"

	"doubleplay/internal/trace"
)

// epochSpan builds one recording-style epoch span.
func epochSpan(idx int64, ts, dur int64, pid int64) trace.Event {
	return trace.Event{Name: "epoch", Ph: trace.PhaseComplete, Ts: ts, Dur: dur, Pid: pid,
		Args: []trace.Arg{trace.Int("epoch", idx), trace.Int("syscalls", 2+idx)}}
}

func TestStatsSynthetic(t *testing.T) {
	evs := []trace.Event{
		{Name: "process_name", Ph: trace.PhaseMeta, Pid: 1, Args: []trace.Arg{trace.String("name", "record x")}},
		{Name: "thread_name", Ph: trace.PhaseMeta, Pid: 1, Tid: 0, Args: []trace.Arg{trace.String("name", "epochs")}},
		epochSpan(0, 0, 100, 1),
		epochSpan(1, 100, 150, 1),
		{Name: "sync", Ph: trace.PhaseInstant, Ts: 42, Pid: 1, Tid: 0},
		{Name: "log.syscalls", Ph: trace.PhaseCounter, Ts: 100, Pid: 1, Tid: 0,
			Args: []trace.Arg{trace.Int("value", 7)}},
		{Name: "slice", Ph: trace.PhaseComplete, Ts: 10, Dur: 20, Pid: 2, Tid: 3},
	}
	rep := Stats(evs)
	if rep.Events != len(evs) {
		t.Fatalf("Events = %d", rep.Events)
	}
	if len(rep.Tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(rep.Tracks))
	}
	tr0 := rep.Tracks[0]
	if tr0.Pid != 1 || tr0.Process != "record x" || tr0.Thread != "epochs" {
		t.Fatalf("track 0 = %+v", tr0)
	}
	if tr0.Spans != 2 || tr0.SpanCycles != 250 || tr0.Instants != 1 || tr0.CounterSamp != 1 {
		t.Fatalf("track 0 counts = %+v", tr0)
	}
	if tr0.FirstTs != 0 || tr0.LastTs != 250 {
		t.Fatalf("track 0 span = %d..%d", tr0.FirstTs, tr0.LastTs)
	}
	if rep.NameCount["epoch"] != 2 || rep.NameCount["process_name"] != 0 {
		t.Fatalf("name counts = %v", rep.NameCount)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	for _, want := range []string{"events: 7", "record x", "epoch", "slice"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestEpochsExtraction(t *testing.T) {
	evs := []trace.Event{
		epochSpan(1, 100, 150, 1),
		epochSpan(0, 0, 100, 1),
		{Name: "divergence", Ph: trace.PhaseInstant, Ts: 260, Pid: 1,
			Args: []trace.Arg{trace.Int("epoch", 1), trace.String("kind", "state")}},
		{Name: "sync", Ph: trace.PhaseInstant, Ts: 1, Pid: 2, Tid: 0}, // no epoch arg: ignored
	}
	eps := epochs(evs)
	if len(eps) != 2 {
		t.Fatalf("epochs = %d", len(eps))
	}
	if eps[0].Index != 0 || eps[1].Index != 1 {
		t.Fatalf("not sorted by index: %+v", eps)
	}
	if eps[1].Cycles != 150 || eps[1].Divergences != 1 || eps[1].Syscalls != 3 {
		t.Fatalf("epoch 1 = %+v", eps[1])
	}
	if eps[0].Divergences != 0 {
		t.Fatalf("epoch 0 = %+v", eps[0])
	}
}

func TestDiffIdentical(t *testing.T) {
	a := []trace.Event{epochSpan(0, 0, 100, 1), epochSpan(1, 100, 150, 1)}
	rep := Diff("a", a, "b", a)
	if rep.FirstDivergent != -1 {
		t.Fatalf("identical traces diverge at %d", rep.FirstDivergent)
	}
	if rep.TotalA != 250 || rep.TotalB != 250 {
		t.Fatalf("totals %d %d", rep.TotalA, rep.TotalB)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "timelines agree") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestDiffDivergentAndMissing(t *testing.T) {
	a := []trace.Event{epochSpan(0, 0, 100, 1), epochSpan(1, 100, 150, 1), epochSpan(2, 250, 80, 1)}
	b := []trace.Event{epochSpan(0, 0, 100, 1), epochSpan(1, 100, 170, 1)}
	rep := Diff("a", a, "b", b)
	if rep.FirstDivergent != 1 {
		t.Fatalf("first divergent = %d, want 1", rep.FirstDivergent)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("epochs = %d", len(rep.Epochs))
	}
	d1 := rep.Epochs[1]
	if !d1.Divergent || d1.Delta != 20 {
		t.Fatalf("epoch 1 delta = %+v", d1)
	}
	d2 := rep.Epochs[2]
	if !d2.Divergent || d2.InB || !d2.InA {
		t.Fatalf("epoch 2 = %+v", d2)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "first divergent epoch: 1") || !strings.Contains(out, "<- first divergent epoch") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestPromlintAcceptsExporter feeds Promlint the real exporter's output.
func TestPromlintAcceptsExporter(t *testing.T) {
	reg := trace.NewRegistry()
	reg.Add("record.epochs", 5, trace.Label("workload", "pbzip"))
	reg.Set("record.completion_cycles", 12345, trace.Label("workload", "pbzip"))
	reg.Observe("epoch.cycles", 100, trace.Label("workload", "pbzip"))
	reg.Observe("epoch.cycles", 90000, trace.Label("workload", "pbzip"))
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := Promlint(buf.String()); len(problems) != 0 {
		t.Fatalf("exporter output fails lint:\n%s\n%v", buf.String(), problems)
	}
}

func TestPromlintCatchesProblems(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"duplicate type", "# TYPE x counter\n# TYPE x gauge\nx 1\n", "duplicate TYPE"},
		{"unknown type", "# TYPE x flum\nx 1\n", "unknown metric type"},
		{"bad name", "# TYPE ok counter\nok 1\n9bad 2\n", "invalid metric name"},
		{"no value", "# TYPE x counter\nx\n", "sample without value"},
		{"undeclared", "# TYPE x counter\nx 1\ny 2\n", "no TYPE declaration"},
		{"histogram incomplete", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 10\n", "missing h_count"},
	}
	for _, c := range cases {
		problems := Promlint(c.text)
		found := false
		for _, p := range problems {
			if strings.Contains(p, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want a %q problem, got %v", c.name, c.want, problems)
		}
	}
}

// streamSink returns a streaming sink over a buffer, and a function that
// closes it and reads back the events it wrote.
func streamSink(t *testing.T) (*trace.Sink, func() []trace.Event) {
	var buf bytes.Buffer
	s := trace.NewStreamSink(&buf, 0)
	return s, func() []trace.Event {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		evs, err := trace.ParseJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
}

// lagTrace builds a synthetic recording timeline shaped like the F6
// worked example: boundaries arrive every 100 cycles, each verify takes
// 250 cycles on one of two pipeline slots, so commit lag climbs linearly
// and a drain tail follows the last boundary.
func lagTrace(t *testing.T) []trace.Event {
	s, events := streamSink(t)
	pid := s.AllocPid("record synth")
	s.NameThread(pid, 0, "epochs + recovery")
	s.NameThread(pid, 1, "pipeline slot 0")
	s.NameThread(pid, 2, "pipeline slot 1")
	const n = 6
	slotFree := [2]int64{0, 0}
	var lastCommit int64
	for i := 0; i < n; i++ {
		bStart := int64(i) * 100
		bEnd := bStart + 100
		s.Span("epoch", bStart, 100, pid, 0, []trace.Arg{trace.Int("epoch", i)})
		c := 0
		if slotFree[1] < slotFree[0] {
			c = 1
		}
		start := slotFree[c]
		if start < bStart {
			start = bStart
		}
		fin := start + 250
		if fin < bEnd {
			fin = bEnd
		}
		slotFree[c] = fin
		tid := int64(1 + c)
		s.Span("epoch.verify", start, fin-start, pid, tid, []trace.Arg{trace.Int("epoch", i), trace.Int("slot", c)})
		s.Instant("epoch.commit", fin, pid, tid, []trace.Arg{trace.Int("epoch", i), trace.Int("lag", fin-bEnd)})
		if fin > lastCommit {
			lastCommit = fin
		}
	}
	s.Instant("record.done", lastCommit, pid, 0, []trace.Arg{trace.Int("epochs", n)})
	return events()
}

func TestLagFillingPipeline(t *testing.T) {
	reps := Lag(lagTrace(t))
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	r := reps[0]
	if r.Epochs != 6 || r.Commits != 6 {
		t.Fatalf("epochs=%d commits=%d, want 6/6", r.Epochs, r.Commits)
	}
	// Two slots each retire a verify every 250 cycles while boundaries
	// arrive every 100: lag grows by 250/2 - 100 = 25 cycles per epoch.
	if r.Slope < 20 || r.Slope > 30 {
		t.Fatalf("overall slope = %.1f, want ~25", r.Slope)
	}
	if r.LastTP != 600 {
		t.Fatalf("LastTP = %d, want 600", r.LastTP)
	}
	if r.Done <= r.LastTP || r.Drain != r.Done-r.LastTP {
		t.Fatalf("drain bookkeeping wrong: done=%d lastTP=%d drain=%d", r.Done, r.LastTP, r.Drain)
	}
	if len(r.Slots) != 2 {
		t.Fatalf("got %d slots, want 2", len(r.Slots))
	}
	for _, sl := range r.Slots {
		if sl.Verifies != 3 || sl.Commits != 3 {
			t.Fatalf("slot %d: verifies=%d commits=%d, want 3/3", sl.Tid, sl.Verifies, sl.Commits)
		}
		if sl.Busy != 750 {
			t.Fatalf("slot %d busy = %d, want 750", sl.Tid, sl.Busy)
		}
		if occ := sl.Occupancy(); occ <= 0.9 || occ > 1.0 {
			t.Fatalf("slot %d occupancy = %.2f, want near 1", sl.Tid, occ)
		}
		if sl.Thread == "" {
			t.Fatalf("slot %d missing thread name", sl.Tid)
		}
	}
	// The per-epoch series must be sorted and strictly increasing in lag.
	for i := 1; i < len(r.Lags); i++ {
		if r.Lags[i].Epoch != r.Lags[i-1].Epoch+1 {
			t.Fatalf("lag series not sorted by epoch: %+v", r.Lags)
		}
		if r.Lags[i].Lag < r.Lags[i-1].Lag {
			t.Fatalf("filling pipeline should have non-decreasing lag: %+v", r.Lags)
		}
	}
	if r.Lags[len(r.Lags)-1].Lag <= r.Lags[0].Lag {
		t.Fatalf("filling pipeline should grow lag overall: %+v", r.Lags)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "FILLS") {
		t.Fatalf("render verdict missing FILLS:\n%s", buf.String())
	}
}

func TestLagKeepingUpAndNoCommits(t *testing.T) {
	s, events := streamSink(t)
	pid := s.AllocPid("record flat")
	for i := 0; i < 4; i++ {
		bStart := int64(i) * 100
		s.Span("epoch", bStart, 100, pid, 0, []trace.Arg{trace.Int("epoch", i)})
		s.Instant("epoch.commit", bStart+150, pid, 1, []trace.Arg{trace.Int("epoch", i), trace.Int("lag", 50)})
	}
	reps := Lag(events())
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	if reps[0].Slope != 0 {
		t.Fatalf("flat lag slope = %.2f, want 0", reps[0].Slope)
	}
	// record.done absent: Done falls back to the last commit.
	if reps[0].Done != 450 {
		t.Fatalf("Done = %d, want 450", reps[0].Done)
	}
	// A guest-only process (no commits) yields no report.
	g, gevents := streamSink(t)
	gp := g.AllocPid("guest only")
	g.Span("run", 0, 10, gp, 0, nil)
	if got := Lag(gevents()); len(got) != 0 {
		t.Fatalf("guest-only trace produced %d reports", len(got))
	}
}

func TestLagControllerNarration(t *testing.T) {
	s, events := streamSink(t)
	pid := s.AllocPid("record adaptive")
	s.Instant("ctl.enable", 0, pid, 0, []trace.Arg{trace.Int("min", 1), trace.Int("max", 4), trace.Int("active", 1)})
	s.Counter("ctl.active", 0, pid, 1)
	for i := 0; i < 6; i++ {
		bStart := int64(i) * 100
		s.Span("epoch", bStart, 100, pid, 0, []trace.Arg{trace.Int("epoch", i)})
		s.Instant("epoch.commit", bStart+200, pid, 1, []trace.Arg{trace.Int("epoch", i), trace.Int("lag", 100)})
	}
	s.Instant("ctl.grow", 500, pid, 0, []trace.Arg{trace.Int("epoch", 3), trace.Int("active", 2), trace.Int("lag", 100)})
	s.Counter("ctl.active", 500, pid, 2)
	s.Instant("ctl.shrink", 900, pid, 0, []trace.Arg{trace.Int("epoch", 5), trace.Int("active", 1), trace.Int("lag", 40)})
	s.Counter("ctl.active", 900, pid, 1)
	reps := Lag(events())
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	r := reps[0]
	if !r.Adaptive {
		t.Fatal("ctl events present but Adaptive is false")
	}
	if r.CtlMin != 1 || r.CtlMax != 4 {
		t.Fatalf("bounds [%d..%d], want [1..4]", r.CtlMin, r.CtlMax)
	}
	if r.Grows != 1 || r.Shrinks != 1 {
		t.Fatalf("grows=%d shrinks=%d, want 1/1", r.Grows, r.Shrinks)
	}
	if r.ActiveSpares != 1 {
		t.Fatalf("final ActiveSpares = %d, want the last sample 1", r.ActiveSpares)
	}
	if len(r.Decisions) != 2 || !r.Decisions[0].Grow || r.Decisions[1].Grow {
		t.Fatalf("decisions wrong: %+v", r.Decisions)
	}
	if r.Decisions[0].Epoch != 3 || r.Decisions[0].Active != 2 || r.Decisions[0].Lag != 100 {
		t.Fatalf("grow decision args wrong: %+v", r.Decisions[0])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "controller: bounds [1..4]") ||
		!strings.Contains(out, "grow") || !strings.Contains(out, "shrink") {
		t.Fatalf("render missing controller narration:\n%s", out)
	}

	// A fixed-spares trace must not claim a controller.
	if fixed := Lag(lagTrace(t)); fixed[0].Adaptive {
		t.Fatal("fixed-spares trace reported Adaptive")
	}
}
