package core

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"doubleplay/internal/replay"
	"doubleplay/internal/trace"
	"doubleplay/internal/workloads"
)

// goldenRun pins the recorder's cycle accounting: CompletionCycles and
// Epochs for every benchmark at the evaluation configuration (seed 11,
// scale 1, spares = workers, default epoch length), captured before the
// observability layer existed. Tracing is purely observational, so these
// values must stay bit-identical with a nil sink AND with a live one; a
// diff here means an instrumentation change perturbed the timing model.
type goldenRun struct {
	name    string
	workers int
	cycles  int64
	epochs  int
}

var goldenRuns = []goldenRun{
	{"pbzip", 2, 1150271, 40}, {"pfscan", 2, 950090, 34}, {"aget", 2, 916647, 33},
	{"webserve", 2, 966839, 33}, {"kvdb", 2, 394579, 14}, {"fft", 2, 465567, 17},
	{"lu", 2, 640074, 24}, {"radix", 2, 679484, 25}, {"ocean", 2, 898567, 33},
	{"water", 2, 668800, 25}, {"racey", 2, 212463, 3}, {"webserve-racy", 2, 968262, 33},
	{"pbzip", 4, 630663, 21}, {"pfscan", 4, 537210, 17}, {"aget", 4, 851737, 31},
	{"webserve", 4, 573796, 17}, {"kvdb", 4, 270276, 8}, {"fft", 4, 283256, 9},
	{"lu", 4, 390784, 13}, {"radix", 4, 423217, 14}, {"ocean", 4, 507423, 18},
	{"water", 4, 390561, 13}, {"racey", 4, 573123, 3}, {"webserve-racy", 4, 713069, 17},
}

func goldenRecord(t *testing.T, g goldenRun, sink *trace.Sink, reg *trace.Registry) *Result {
	t.Helper()
	wl := workloads.Get(g.name)
	if wl == nil {
		t.Fatalf("unknown workload %s", g.name)
	}
	bt := wl.Build(workloads.Params{Workers: g.workers, Scale: 1, Seed: 11})
	res, err := Record(bt.Prog, bt.World, Options{
		Workers: g.workers, RecordCPUs: g.workers, SpareCPUs: g.workers,
		Seed: 11, Trace: sink, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("record %s/%d: %v", g.name, g.workers, err)
	}
	return res
}

// TestGoldenCyclesUnchanged is the benchmark guard: recording with no sink
// must reproduce the pre-observability cycle counts exactly.
func TestGoldenCyclesUnchanged(t *testing.T) {
	runs := goldenRuns
	if testing.Short() {
		runs = runs[:4]
	}
	for _, g := range runs {
		res := goldenRecord(t, g, nil, nil)
		if res.Stats.CompletionCycles != g.cycles || res.Stats.Epochs != g.epochs {
			t.Errorf("%s/%d: got %d cycles %d epochs, golden %d cycles %d epochs",
				g.name, g.workers, res.Stats.CompletionCycles, res.Stats.Epochs, g.cycles, g.epochs)
		}
	}
}

// TestTracingDoesNotPerturbCycles asserts the stronger property: even with
// a live sink and registry attached, every simulated clock is untouched.
func TestTracingDoesNotPerturbCycles(t *testing.T) {
	runs := goldenRuns
	if testing.Short() {
		runs = runs[:4]
	}
	for _, g := range runs {
		sink := trace.NewSink()
		res := goldenRecord(t, g, sink, trace.NewRegistry())
		if res.Stats.CompletionCycles != g.cycles || res.Stats.Epochs != g.epochs {
			t.Errorf("%s/%d traced: got %d cycles %d epochs, golden %d cycles %d epochs",
				g.name, g.workers, res.Stats.CompletionCycles, res.Stats.Epochs, g.cycles, g.epochs)
		}
		if sink.Len() == 0 {
			t.Errorf("%s/%d traced: sink stayed empty", g.name, g.workers)
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

// countEvents tallies events by (name, phase).
func countEvents(evs []trace.Event, name string, ph byte) int {
	n := 0
	for _, ev := range evs {
		if ev.Name == name && ev.Ph == ph {
			n++
		}
	}
	return n
}

// TestTraceConsistentWithStats records a divergence-free workload and
// checks the event stream against the recorder's own accounting.
func TestTraceConsistentWithStats(t *testing.T) {
	g := goldenRun{name: "pbzip", workers: 2}
	sink, events := streamSink(t)
	res := goldenRecord(t, g, sink, nil)
	s := res.Stats
	if s.Divergences != 0 {
		t.Fatalf("pbzip diverged (%d); the exact-count assertions below assume a clean run", s.Divergences)
	}
	evs := events()

	// One "epoch" span per recorded epoch, one commit each, and the initial
	// checkpoint plus one per boundary.
	if n := countEvents(evs, "epoch", trace.PhaseComplete); n != s.Epochs {
		t.Errorf("epoch spans = %d, Stats.Epochs = %d", n, s.Epochs)
	}
	if n := countEvents(evs, "epoch.verify", trace.PhaseComplete); n != s.Epochs {
		t.Errorf("epoch.verify spans = %d, Stats.Epochs = %d", n, s.Epochs)
	}
	if n := countEvents(evs, "epoch.commit", trace.PhaseInstant); n != s.Epochs {
		t.Errorf("epoch.commit instants = %d, Stats.Epochs = %d", n, s.Epochs)
	}
	if n := countEvents(evs, "checkpoint.create", trace.PhaseInstant); n != s.Epochs+1 {
		t.Errorf("checkpoint.create instants = %d, want epochs+1 = %d", n, s.Epochs+1)
	}
	// On a divergence-free run nothing is squashed, so the guest-side
	// instants match the log counts exactly.
	if n := countEvents(evs, "syscall", trace.PhaseInstant); n != s.Syscalls {
		t.Errorf("syscall instants = %d, Stats.Syscalls = %d", n, s.Syscalls)
	}
	if n := countEvents(evs, "sync", trace.PhaseInstant); n != s.SyncEvents {
		t.Errorf("sync instants = %d, Stats.SyncEvents = %d", n, s.SyncEvents)
	}
	if n := countEvents(evs, "signal", trace.PhaseInstant); n != s.Signals {
		t.Errorf("signal instants = %d, Stats.Signals = %d", n, s.Signals)
	}
	if n := countEvents(evs, "divergence", trace.PhaseInstant); n != 0 {
		t.Errorf("divergence instants = %d on a clean run", n)
	}
	if n := countEvents(evs, "record.done", trace.PhaseInstant); n != 1 {
		t.Errorf("record.done instants = %d", n)
	}

	// The epoch timeline on the recorder track must be monotone and dense:
	// epoch i+1 starts exactly where epoch i ends.
	var prevEnd int64
	for _, ev := range evs {
		if ev.Name != "epoch" || ev.Ph != trace.PhaseComplete {
			continue
		}
		if ev.Ts != prevEnd {
			t.Fatalf("epoch span at %d does not abut previous end %d", ev.Ts, prevEnd)
		}
		if ev.Dur <= 0 {
			t.Fatalf("epoch span at %d has dur %d", ev.Ts, ev.Dur)
		}
		prevEnd = ev.Ts + ev.Dur
	}
	// The last boundary is taken at the minimum CPU clock, while the wall
	// time is the maximum, so the final span may stop a few cycles short.
	if prevEnd > s.ThreadParallelCycles {
		t.Errorf("epoch spans end at %d, past the thread-parallel wall time %d", prevEnd, s.ThreadParallelCycles)
	}

	// The JSON document holds every event emitted.
	if len(evs) != sink.Len() {
		t.Errorf("JSON round trip: %d events, emitted %d", len(evs), sink.Len())
	}
}

// TestTraceRecordsDivergences records a racy workload and checks that each
// divergence and its forward recovery shows up on the timeline.
func TestTraceRecordsDivergences(t *testing.T) {
	g := goldenRun{name: "racey", workers: 2}
	sink, events := streamSink(t)
	res := goldenRecord(t, g, sink, nil)
	s := res.Stats
	if s.Divergences == 0 {
		t.Fatal("racey did not diverge; the recovery-tracing assertions need one")
	}
	evs := events()
	if n := countEvents(evs, "divergence", trace.PhaseInstant); n != s.Divergences {
		t.Errorf("divergence instants = %d, Stats.Divergences = %d", n, s.Divergences)
	}
	adopts := countEvents(evs, "recovery.adopt", trace.PhaseInstant)
	reruns := countEvents(evs, "recovery.rerun", trace.PhaseComplete)
	if adopts != s.HashRecoveries || reruns != s.RerunRecoveries {
		t.Errorf("recoveries: adopt %d/%d, rerun %d/%d",
			adopts, s.HashRecoveries, reruns, s.RerunRecoveries)
	}
	if n := countEvents(evs, "epoch", trace.PhaseComplete); n != s.Epochs {
		t.Errorf("epoch spans = %d, Stats.Epochs = %d", n, s.Epochs)
	}
}

// TestReplayTraceMatchesEpochs checks that a traced sequential replay
// narrates exactly the recording's epochs, back to back.
func TestReplayTraceMatchesEpochs(t *testing.T) {
	g := goldenRun{name: "fft", workers: 2}
	res := goldenRecord(t, g, nil, nil)
	wl := workloads.Get(g.name)
	bt := wl.Build(workloads.Params{Workers: g.workers, Scale: 1, Seed: 11})

	sink, events := streamSink(t)
	rep, err := replay.Sequential(bt.Prog, res.Recording, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	evs := events()
	if n := countEvents(evs, "replay.epoch", trace.PhaseComplete); n != rep.Epochs {
		t.Errorf("replay.epoch spans = %d, replayed %d epochs", n, rep.Epochs)
	}
	var prevEnd int64
	for _, ev := range evs {
		if ev.Name != "replay.epoch" {
			continue
		}
		if ev.Ts != prevEnd {
			t.Fatalf("replay.epoch at %d does not abut previous end %d", ev.Ts, prevEnd)
		}
		prevEnd = ev.Ts + ev.Dur
	}
	if prevEnd != rep.Cycles {
		t.Errorf("replay.epoch spans end at %d, replay took %d", prevEnd, rep.Cycles)
	}

	// Parallel replay: one span per epoch, makespan equals the last span end.
	psink, pevents := streamSink(t)
	par, err := replay.Run(context.Background(), bt.Prog, replay.FromRecording(res.Recording),
		replay.Options{Boundaries: res.Boundaries, CPUs: g.workers, Trace: psink})
	if err != nil {
		t.Fatal(err)
	}
	var maxEnd int64
	n := 0
	for _, ev := range pevents() {
		if ev.Name != "replay.epoch" || ev.Ph != trace.PhaseComplete {
			continue
		}
		n++
		if end := ev.Ts + ev.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	if n != par.Epochs {
		t.Errorf("parallel replay.epoch spans = %d, want %d", n, par.Epochs)
	}
	if maxEnd != par.Cycles {
		t.Errorf("parallel spans end at %d, makespan %d", maxEnd, par.Cycles)
	}
}

// TestRecordWindowCounters: the recorder publishes how much of the
// thread-parallel run sched.Parallel carried in windows, and in how many.
// A compute kernel runs nearly all of it inside them and never conflicts,
// and so does a guest with signals, whose windows end at each delivery's
// clock (99.5 % of sigping's run measured); a racy guest's windows are
// abandoned on conflicts.
func TestRecordWindowCounters(t *testing.T) {
	for _, name := range []string{"fft", "racey", "sigping"} {
		reg := trace.NewRegistry()
		res := goldenRecord(t, goldenRun{name: name, workers: 4}, nil, reg)
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		counter := func(series string) int64 {
			for _, line := range strings.Split(prom.String(), "\n") {
				if v, ok := strings.CutPrefix(line, series+" "); ok {
					n, _ := strconv.ParseInt(v, 10, 64)
					return n
				}
			}
			return 0 // never incremented
		}
		instrs := counter(`doubleplay_record_window_instrs{workload="` + name + `"}`)
		windows := counter(`doubleplay_record_windows{workload="` + name + `"}`)
		event := counter(`doubleplay_record_window_aborts{workload="` + name + `",reason="event"}`)
		conflict := counter(`doubleplay_record_window_aborts{workload="` + name + `",reason="conflict"}`)
		t.Logf("%s: %d of %d instructions in %d windows, %d event aborts, %d conflict aborts", name, instrs, res.Stats.Retired, windows, event, conflict)
		if instrs > 0 != (windows > 0) || instrs < windows {
			t.Errorf("%s: %d instructions in %d windows", name, instrs, windows)
		}
		switch name {
		case "fft":
			if instrs*100 < res.Stats.Retired*97 || instrs > res.Stats.Retired || conflict != 0 {
				t.Errorf("fft: %d of %d instructions in windows, %d conflict aborts", instrs, res.Stats.Retired, conflict)
			}
		case "racey":
			if conflict == 0 {
				t.Error("racey recorded without a window abandoned on a conflict")
			}
		case "sigping":
			if instrs*100 < res.Stats.Retired*99 || instrs > res.Stats.Retired || conflict != 0 {
				t.Errorf("sigping: %d of %d instructions in windows, %d conflict aborts", instrs, res.Stats.Retired, conflict)
			}
		}
	}
}
