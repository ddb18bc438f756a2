package replay_test

import (
	"bytes"
	"context"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// stepAll steps st to the end of its epoch, holds every event Step
// reports — which it reads off the scheduler, not off the machine — to what
// the machine's own retire hook saw, and returns the number of steps.
func stepAll(t *testing.T, m *vm.Machine, st *replay.Stepper) uint64 {
	t.Helper()
	var tid, pc int
	m.Hooks.OnRetire = func(th *vm.Thread, p int, _ int64) { tid, pc = th.ID, p }
	defer func() { m.Hooks.OnRetire = nil }()
	var steps uint64
	for ; !st.Done(); steps++ {
		ev, err := st.Step()
		if err != nil {
			t.Fatalf("epoch %d step %d: %v", st.Epoch().Index, steps, err)
		}
		if ev.Tid != tid || ev.PC != pc {
			t.Fatalf("epoch %d step %d: Step reports thread %d at pc %d, thread %d retired at pc %d",
				st.Epoch().Index, steps, ev.Tid, ev.PC, tid, pc)
		}
	}
	return steps
}

// TestStepperMatchesSequential steps entire recordings one instruction
// at a time and checks the unrolled execution lands on exactly the
// state and cost the batch replay computes.
func TestStepperMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"kvdb", 2}, {"racey", 2}, {"fft", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			prog, res := recordWorkload(t, tc.name, tc.workers)
			rec := res.Recording
			seq, err := replay.Sequential(prog, rec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := vm.NewMachine(prog, nil, nil)
			var cycles int64
			var steps uint64
			for _, ep := range rec.Epochs {
				st, err := replay.NewStepper(m, ep, rec.Quantum, nil)
				if err != nil {
					t.Fatalf("epoch %d: %v", ep.Index, err)
				}
				steps += stepAll(t, m, st)
				cycles += st.Cycles()
			}
			if h := m.StateHash(); h != rec.FinalHash {
				t.Fatalf("stepped final hash %016x != recorded %016x", h, rec.FinalHash)
			}
			if cycles != seq.Cycles {
				t.Fatalf("stepped cycles %d != sequential replay %d", cycles, seq.Cycles)
			}
			if steps == 0 {
				t.Fatal("no instructions stepped")
			}
		})
	}
}

// TestStepperMatchesOneEpoch checks per-epoch equivalence from restored
// boundaries: stepping an epoch equals replaying it wholesale.
func TestStepperMatchesOneEpoch(t *testing.T) {
	prog, res := recordWorkload(t, "radix", 2)
	rec := res.Recording
	bs, err := replay.CheckpointsFrom(nil, prog, replay.FromRecording(rec), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range rec.Epochs {
		one, err := replay.OneEpoch(prog, bs[i], ep, rec.Quantum, nil)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		m := bs[i].CP.Restore(prog, nil, nil)
		st, err := replay.NewStepper(m, ep, rec.Quantum, nil)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		for step := 0; !st.Done(); step++ {
			if _, err := st.Step(); err != nil {
				t.Fatalf("epoch %d step %d: %v", i, step, err)
			}
		}
		if st.Cycles() != one.Cycles {
			t.Fatalf("epoch %d: stepped cycles %d != OneEpoch %d", i, st.Cycles(), one.Cycles)
		}
		if h := m.StateHash(); h != one.FinalHash {
			t.Fatalf("epoch %d: stepped hash %016x != OneEpoch %016x", i, h, one.FinalHash)
		}
	}
}

// TestStepperCertified steps a certified recording (no timeslice
// schedules — free-run under the sync-order gate) to the same end.
func TestStepperCertified(t *testing.T) {
	wl := workloads.Get("sigping")
	if wl == nil {
		t.Fatal("no sigping workload")
	}
	bt := wl.Build(workloads.Params{Workers: 2, Seed: 17})
	policy, err := core.ParseVerifyPolicy("certified")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers: 2, SpareCPUs: 2, Seed: 17, VerifyPolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recording
	certified := false
	for _, ep := range rec.Epochs {
		certified = certified || ep.Certified
	}
	if !certified {
		t.Skip("recording has no certified epochs")
	}
	seq, err := replay.Sequential(bt.Prog, rec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(bt.Prog, nil, nil)
	var cycles int64
	for _, ep := range rec.Epochs {
		st, err := replay.NewStepper(m, ep, rec.Quantum, nil)
		if err != nil {
			t.Fatalf("epoch %d: %v", ep.Index, err)
		}
		stepAll(t, m, st)
		cycles += st.Cycles()
	}
	if h := m.StateHash(); h != rec.FinalHash {
		t.Fatalf("stepped final hash %016x != recorded %016x", h, rec.FinalHash)
	}
	if cycles != seq.Cycles {
		t.Fatalf("stepped cycles %d != sequential replay %d", cycles, seq.Cycles)
	}
}

// TestSignalHookIsPerEpoch replays a recording in which epochs that carry
// signal deliveries alternate with epochs that carry none. One machine runs
// many epochs in a row, each under its own Exec, whose scheduler delivers
// that epoch's signals: an epoch with signals after one without must still
// deliver them, one without after one with must not consult the previous
// epoch's injector, and both kinds run in the slice loop, which stops at
// each delivery's retired count.
func TestSignalHookIsPerEpoch(t *testing.T) {
	bt := workloads.Get("sigping").Build(workloads.Params{Workers: 2, Seed: 17})
	recProf := profile.NewProfile("")
	// Epochs shorter than the gap between two signals, so some are empty.
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers: 2, SpareCPUs: 2, Seed: 17, EpochCycles: 600, Profile: recProf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recording
	var quietThenLoud, loudThenQuiet bool
	for i := 1; i < len(rec.Epochs); i++ {
		before, now := len(rec.Epochs[i-1].Signals) > 0, len(rec.Epochs[i].Signals) > 0
		quietThenLoud = quietThenLoud || (!before && now)
		loudThenQuiet = loudThenQuiet || (before && !now)
	}
	if !quietThenLoud || !loudThenQuiet {
		t.Fatalf("recording does not alternate epochs with and without signals (%d epochs, %d signals)",
			len(rec.Epochs), res.Stats.Signals)
	}

	// One machine, one Stepper per epoch, as sequential replay and the
	// debugger drive it.
	m := vm.NewMachine(bt.Prog, nil, nil)
	delivered := 0
	for _, ep := range rec.Epochs {
		st, err := replay.NewStepper(m, ep, rec.Quantum, nil)
		if err != nil {
			t.Fatalf("epoch %d: %v", ep.Index, err)
		}
		if _, err := st.Run(); err != nil {
			t.Fatalf("epoch %d: %v", ep.Index, err)
		}
		if st.LoopRetired() == 0 {
			t.Fatalf("epoch %d, carrying %d signals, retired nothing in the slice loop", ep.Index, len(ep.Signals))
		}
		delivered += len(ep.Signals)
	}
	if h := m.StateHash(); h != rec.FinalHash {
		t.Fatalf("final hash %016x != recorded %016x", h, rec.FinalHash)
	}
	if delivered != res.Stats.Signals || delivered == 0 {
		t.Fatalf("replayed %d signal deliveries, recorded %d", delivered, res.Stats.Signals)
	}
	if err := bt.CheckOK(m.Mem.Peek); err != nil {
		t.Fatalf("guest self-check after replay: %v", err)
	}

	// Every plan over both sources: same final state, same guest profile.
	want := recProf.MarshalPprof()
	for srcName, src := range sources(t, rec) {
		for _, p := range plans(res) {
			prof := profile.NewProfile("")
			opt := p.options(4)
			opt.Profile = prof
			out, err := replay.Run(context.Background(), bt.Prog, src, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", srcName, p.name, err)
			}
			if out.FinalHash != res.FinalHash {
				t.Fatalf("%s/%s: final hash %016x != recorded %016x", srcName, p.name, out.FinalHash, res.FinalHash)
			}
			if !bytes.Equal(prof.MarshalPprof(), want) {
				t.Fatalf("%s/%s: guest profile differs from the record profile", srcName, p.name)
			}
		}
	}
}
