package core

import (
	"reflect"
	"strings"
	"testing"

	"doubleplay/internal/replay"
	"doubleplay/internal/trace"
	"doubleplay/internal/workloads"
)

// --- Hysteresis rule on synthetic lag series ---------------------------------

// TestControllerGrowsOnFill feeds a saturated, monotonically filling
// pipeline: positive lag slope with every epoch waiting for a slot.
func TestControllerGrowsOnFill(t *testing.T) {
	c := newController(1, 4, 1)
	for i := 0; i < 40; i++ {
		c.observe(i, int64(5000*(i+1)), true, 25000)
	}
	if c.active != 4 {
		t.Errorf("active = %d after a sustained fill, want the Max of 4", c.active)
	}
	if c.grows != 3 || c.shrinks != 0 {
		t.Errorf("decisions = %d grows %d shrinks, want 3 grows 0 shrinks", c.grows, c.shrinks)
	}
}

// TestControllerShrinksOnDrain feeds a drained pipeline: every epoch finds
// a free slot and lag stays within one epoch length.
func TestControllerShrinksOnDrain(t *testing.T) {
	c := newController(1, 4, 4)
	for i := 0; i < 40; i++ {
		c.observe(i, 1000, false, 25000)
	}
	if c.active != 1 {
		t.Errorf("active = %d after a sustained drain, want the Min of 1", c.active)
	}
	if c.shrinks != 3 || c.grows != 0 {
		t.Errorf("decisions = %d grows %d shrinks, want 0 grows 3 shrinks", c.grows, c.shrinks)
	}
}

// TestControllerClamps pins the [Min, Max] bounds: a controller already at
// a bound holds there no matter how loud the signal.
func TestControllerClamps(t *testing.T) {
	hi := newController(2, 3, 3)
	for i := 0; i < 40; i++ {
		hi.observe(i, int64(5000*(i+1)), true, 25000)
	}
	if hi.active != 3 || hi.grows != 0 {
		t.Errorf("at Max: active = %d grows = %d, want 3 and 0", hi.active, hi.grows)
	}
	lo := newController(2, 3, 2)
	for i := 0; i < 40; i++ {
		lo.observe(i, 0, false, 25000)
	}
	if lo.active != 2 || lo.shrinks != 0 {
		t.Errorf("at Min: active = %d shrinks = %d, want 2 and 0", lo.active, lo.shrinks)
	}
}

// TestControllerHoldsOnMixedSignal checks both halves of the hysteresis
// gate: a rising slope without saturation must not grow, and a saturated
// pipeline whose lag is flat must not grow either (it is keeping up at
// full occupancy — exactly where it should sit).
func TestControllerHoldsOnMixedSignal(t *testing.T) {
	c := newController(1, 4, 2)
	for i := 0; i < 40; i++ {
		c.observe(i, int64(5000*(i+1)), i%2 == 0, 25000)
	}
	if c.grows != 0 {
		t.Errorf("rising slope without saturation grew %d times", c.grows)
	}
	c = newController(1, 4, 2)
	for i := 0; i < 40; i++ {
		c.observe(i, 40000, true, 25000)
	}
	if c.grows != 0 {
		t.Errorf("flat lag at full occupancy grew %d times", c.grows)
	}
	// Saturated with large flat lag must not shrink either.
	if c.shrinks != 0 {
		t.Errorf("saturated pipeline shrank %d times", c.shrinks)
	}
}

// TestControllerCooldown checks the quiet period: after a decision the
// controller refills a full window before it can act again, so back-to-back
// boundaries cannot cause back-to-back decisions.
func TestControllerCooldown(t *testing.T) {
	c := newController(1, 8, 1)
	decisions := make([]int, 0, 4)
	for i := 0; i < 20; i++ {
		if d := c.observe(i, int64(5000*(i+1)), true, 25000); d != 0 {
			decisions = append(decisions, i)
		}
	}
	for j := 1; j < len(decisions); j++ {
		if gap := decisions[j] - decisions[j-1]; gap < ctlWindow {
			t.Errorf("decisions at epochs %d and %d are %d apart, want >= window %d",
				decisions[j-1], decisions[j], gap, ctlWindow)
		}
	}
	if len(decisions) == 0 {
		t.Fatal("sustained fill caused no decisions")
	}
}

// --- Adaptive recordings through the real recorder ---------------------------

func adaptiveRecord(t *testing.T, name string, workers, spares, min, max int, sink trace.Recorder) (*Result, *workloads.Built) {
	t.Helper()
	wl := workloads.Get(name)
	if wl == nil {
		t.Fatalf("unknown workload %s", name)
	}
	bt := wl.Build(workloads.Params{Workers: workers, Scale: 1, Seed: 11})
	res, err := Record(bt.Prog, bt.World, Options{
		Workers: workers, RecordCPUs: workers, SpareCPUs: spares,
		Adaptive: true, AdaptiveMinSpares: min, AdaptiveMaxSpares: max,
		Seed: 11, Trace: sink,
	})
	if err != nil {
		t.Fatalf("adaptive record %s/%d: %v", name, workers, err)
	}
	return res, bt
}

// withoutController drops the controller's own ctl.* events from a trace.
func withoutController(evs []trace.Event) []trace.Event {
	var out []trace.Event
	for _, ev := range evs {
		if !strings.HasPrefix(ev.Name, "ctl.") {
			out = append(out, ev)
		}
	}
	return out
}

// TestAdaptivePinnedMatchesFixed is the satellite guard: with Min == Max ==
// SpareCPUs the controller can never fire, and the recording — stats,
// hashes, the trace event for event apart from the controller's own ctl.*
// events, and replay — must be bit-identical to the fixed-spares run of the
// same seed.
func TestAdaptivePinnedMatchesFixed(t *testing.T) {
	for _, name := range []string{"pbzip", "racey"} {
		fixedSink, fixedEvents := streamSink(t)
		pinnedSink, pinnedEvents := streamSink(t)
		fixed := goldenRecord(t, goldenRun{name: name, workers: 2}, fixedSink, nil)
		pinned, bt := adaptiveRecord(t, name, 2, 2, 2, 2, pinnedSink)
		if pinned.Stats.SpareGrows != 0 || pinned.Stats.SpareShrinks != 0 {
			t.Fatalf("%s: pinned controller fired (%d grows, %d shrinks)",
				name, pinned.Stats.SpareGrows, pinned.Stats.SpareShrinks)
		}
		if !reflect.DeepEqual(fixed.Stats, pinned.Stats) {
			t.Errorf("%s: pinned adaptive stats differ from fixed:\nfixed  %+v\npinned %+v",
				name, fixed.Stats, pinned.Stats)
		}
		if fixed.FinalHash != pinned.FinalHash || fixed.OutputHash != pinned.OutputHash {
			t.Errorf("%s: pinned adaptive hashes differ from fixed", name)
		}
		if f, p := fixedEvents(), withoutController(pinnedEvents()); len(f) == 0 || !reflect.DeepEqual(f, p) {
			t.Errorf("%s: pinned adaptive trace differs from fixed (%d and %d events)", name, len(f), len(p))
		}
		rep, err := replay.Sequential(bt.Prog, pinned.Recording, nil, nil)
		if err != nil {
			t.Fatalf("%s: pinned adaptive replay: %v", name, err)
		}
		if rep.FinalHash != fixed.FinalHash {
			t.Errorf("%s: pinned adaptive replay hash %016x, fixed recording %016x",
				name, rep.FinalHash, fixed.FinalHash)
		}
	}
}

// TestAdaptiveGrowsUnderFill starts pbzip (4 workers) with a single active
// slot: the 1-spare pipeline fills (verification retires ~3x slower than
// boundaries arrive), so the controller must grow, and the adaptive run
// must complete earlier than the pinned 1-spare run.
func TestAdaptiveGrowsUnderFill(t *testing.T) {
	wl := workloads.Get("pbzip")
	bt := wl.Build(workloads.Params{Workers: 4, Scale: 1, Seed: 11})
	pinned, err := Record(bt.Prog, bt.World, Options{
		Workers: 4, RecordCPUs: 4, SpareCPUs: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink, events := streamSink(t)
	res, _ := adaptiveRecord(t, "pbzip", 4, 1, 1, 4, sink)
	if res.Stats.SpareGrows == 0 {
		t.Fatal("controller never grew on a filling pipeline")
	}
	if res.Stats.ActiveSpares <= 1 {
		t.Errorf("ActiveSpares = %d at completion, want > 1", res.Stats.ActiveSpares)
	}
	if res.Stats.CompletionCycles >= pinned.Stats.CompletionCycles {
		t.Errorf("adaptive completion %d not better than pinned 1-spare %d",
			res.Stats.CompletionCycles, pinned.Stats.CompletionCycles)
	}
	// The controller narrates every decision: one ctl.enable, one ctl.grow
	// per grow decision, and a ctl.active sample per decision plus the
	// initial one.
	evs := events()
	if n := countEvents(evs, "ctl.enable", trace.PhaseInstant); n != 1 {
		t.Errorf("ctl.enable instants = %d, want 1", n)
	}
	if n := countEvents(evs, "ctl.grow", trace.PhaseInstant); n != res.Stats.SpareGrows {
		t.Errorf("ctl.grow instants = %d, Stats.SpareGrows = %d", n, res.Stats.SpareGrows)
	}
	if n := countEvents(evs, "ctl.shrink", trace.PhaseInstant); n != res.Stats.SpareShrinks {
		t.Errorf("ctl.shrink instants = %d, Stats.SpareShrinks = %d", n, res.Stats.SpareShrinks)
	}
	wantSamples := 1 + res.Stats.SpareGrows + res.Stats.SpareShrinks
	if n := countEvents(evs, "ctl.active", trace.PhaseCounter); n != wantSamples {
		t.Errorf("ctl.active samples = %d, want %d", n, wantSamples)
	}
}

// TestAdaptiveRecordingReplaysBitIdentically is the acceptance property:
// whatever the controller does — including on racy workloads that diverge
// and recover — the recording that comes out replays from the log alone
// with every boundary hash verified.
func TestAdaptiveRecordingReplaysBitIdentically(t *testing.T) {
	cases := []struct {
		name    string
		workers int
	}{
		{"pbzip", 4}, {"racey", 2}, {"webserve-racy", 4}, {"kvdb", 2},
	}
	for _, tc := range cases {
		res, bt := adaptiveRecord(t, tc.name, tc.workers, 1, 1, tc.workers, nil)
		rep, err := replay.Sequential(bt.Prog, res.Recording, nil, nil)
		if err != nil {
			t.Errorf("%s/%d: adaptive recording failed to replay: %v", tc.name, tc.workers, err)
			continue
		}
		if rep.FinalHash != res.FinalHash {
			t.Errorf("%s/%d: replay hash %016x, recording %016x",
				tc.name, tc.workers, rep.FinalHash, res.FinalHash)
		}
		if rep.Epochs != res.Stats.Epochs {
			t.Errorf("%s/%d: replayed %d epochs, recorded %d", tc.name, tc.workers, rep.Epochs, res.Stats.Epochs)
		}
	}
}

// TestAdaptiveRecordingIsDeterministic re-records the same workload, seed,
// and bounds and requires bit-identical stats, hashes and trace.
func TestAdaptiveRecordingIsDeterministic(t *testing.T) {
	sa, ea := streamSink(t)
	sb, eb := streamSink(t)
	a, _ := adaptiveRecord(t, "pbzip", 4, 1, 1, 4, sa)
	b, _ := adaptiveRecord(t, "pbzip", 4, 1, 1, 4, sb)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("adaptive stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.FinalHash != b.FinalHash || a.OutputHash != b.OutputHash {
		t.Error("adaptive hashes differ across identical runs")
	}
	if a.Stats.SpareGrows == 0 {
		t.Error("the controller never fired, so the runs test nothing")
	}
	if ea, eb := ea(), eb(); len(ea) == 0 || !reflect.DeepEqual(ea, eb) {
		t.Errorf("adaptive traces differ across identical runs (%d and %d events)", len(ea), len(eb))
	}
}
