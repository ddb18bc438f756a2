package baseline_test

import (
	"context"
	"testing"

	"doubleplay/internal/baseline"
	"doubleplay/internal/core"
	"doubleplay/internal/replay"
	"doubleplay/internal/workloads"
)

func build(t *testing.T, name string, workers int) *workloads.Built {
	t.Helper()
	wl := workloads.Get(name)
	if wl == nil {
		t.Fatalf("no workload %s", name)
	}
	return wl.Build(workloads.Params{Workers: workers, Seed: 23})
}

func TestCrewCountsSharing(t *testing.T) {
	// ocean shares grid pages across workers heavily; its transition count
	// must dwarf aget's, whose workers touch disjoint ranges.
	bt := build(t, "ocean", 4)
	ocean, err := baseline.RunCREW(bt.Prog, bt.World, 4, 23, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bt = build(t, "aget", 4)
	aget, err := baseline.RunCREW(bt.Prog, bt.World, 4, 23, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ocean.Faults) != 0 || len(aget.Faults) != 0 {
		t.Fatal("guest faults under CREW")
	}
	if ocean.Transitions < 10*aget.Transitions {
		t.Fatalf("sharing not visible: ocean %d vs aget %d transitions",
			ocean.Transitions, aget.Transitions)
	}
	if ocean.Cycles <= ocean.BaseCycles {
		t.Fatal("CREW fault penalty not charged")
	}
	if ocean.OrderBytes <= 0 || ocean.LogBytes != ocean.OrderBytes+ocean.InputBytes {
		t.Fatalf("log accounting wrong: %+v", ocean)
	}
}

func TestCrewDoesNotPerturbExecution(t *testing.T) {
	// CREW instrumentation observes; the guest result must be unchanged.
	bt := build(t, "lu", 2)
	res, err := baseline.RunCREW(bt.Prog, bt.World, 2, 23, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 0 {
		t.Fatalf("faults: %v", res.Faults)
	}
	if res.Retired == 0 {
		t.Fatal("nothing retired")
	}
}

func TestUniprocessorSlowdownAndDeterminism(t *testing.T) {
	bt := build(t, "fft", 4)
	nat, err := core.RunNative(bt.Prog, build(t, "fft", 4).World, 4, 23, nil)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := baseline.RunUniprocessor(bt.Prog, bt.World, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(uni.Faults) != 0 {
		t.Fatalf("faults: %v", uni.Faults)
	}
	// Serialized execution of a 4-way parallel kernel: expect ~2.5x+.
	if float64(uni.Cycles) < 2.0*float64(nat.Cycles) {
		t.Fatalf("uniprocessor not slower: %d vs native %d", uni.Cycles, nat.Cycles)
	}
	if uni.Slices == 0 || uni.LogBytes == 0 {
		t.Fatal("no log produced")
	}

	// Deterministic: a second run produces the identical final state.
	uni2, err := baseline.RunUniprocessor(bt.Prog, build(t, "fft", 4).World, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if uni2.FinalHash != uni.FinalHash {
		t.Fatal("uniprocessor baseline nondeterministic")
	}
}

func TestUniprocessorLogSmallerThanCrewOnSharingHeavy(t *testing.T) {
	bt := build(t, "radix", 4)
	crew, err := baseline.RunCREW(bt.Prog, bt.World, 4, 23, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := baseline.RunUniprocessor(build(t, "radix", 4).Prog, build(t, "radix", 4).World, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if uni.LogBytes*10 > crew.LogBytes {
		t.Fatalf("expected order-of-magnitude gap: uni %d vs crew %d", uni.LogBytes, crew.LogBytes)
	}
}

// TestUniprocessorLogReplays drives the uniprocessor baseline's recording
// of every workload through the replayer: the log is one epoch from program
// reset, and following its schedule with its syscalls (kvdb) and signals
// (sigping) injected must land on the state the recorder ended in. aget's
// log holds syscalls that complete while the CPU idles, which the schedule
// must name too.
func TestUniprocessorLogReplays(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			bt := build(t, name, 4)
			uni, err := baseline.RunUniprocessor(bt.Prog, bt.World, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ep := uni.Recording.Epochs[0]
			if (name == "kvdb" && len(ep.Syscalls) == 0) || (name == "sigping" && len(ep.Signals) == 0) {
				t.Fatalf("log holds %d syscalls, %d signals: nothing to inject", len(ep.Syscalls), len(ep.Signals))
			}
			rep, err := replay.Run(context.Background(), bt.Prog, replay.FromRecording(uni.Recording), replay.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.FinalHash != uni.FinalHash || rep.Epochs != 1 {
				t.Fatalf("replayed %d epochs to %016x, recorded one to %016x", rep.Epochs, rep.FinalHash, uni.FinalHash)
			}
		})
	}
}
