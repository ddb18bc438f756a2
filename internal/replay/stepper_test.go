package replay_test

import (
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

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
				for !st.Done() {
					if _, err := st.Step(); err != nil {
						t.Fatalf("epoch %d step %d: %v", ep.Index, st.Steps(), err)
					}
				}
				cycles += st.Cycles()
				steps += st.Steps()
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
		for !st.Done() {
			if _, err := st.Step(); err != nil {
				t.Fatalf("epoch %d step %d: %v", i, st.Steps(), err)
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
		for !st.Done() {
			if _, err := st.Step(); err != nil {
				t.Fatalf("epoch %d step %d: %v", ep.Index, st.Steps(), err)
			}
		}
		cycles += st.Cycles()
	}
	if h := m.StateHash(); h != rec.FinalHash {
		t.Fatalf("stepped final hash %016x != recorded %016x", h, rec.FinalHash)
	}
	if cycles != seq.Cycles {
		t.Fatalf("stepped cycles %d != sequential replay %d", cycles, seq.Cycles)
	}
}
