package replay_test

import (
	"context"
	"testing"

	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// minLoopShare is the least share of a sequential replay's instructions
// that must retire inside the scheduler's slice loop, on every workload:
// the loop stops at a recorded signal's retired count and goes on after
// the delivery.
const minLoopShare = 0.98

// TestSliceLoopShare makes the fast path's traffic a count: on every
// builtin workload a hook-free sequential replay retires nearly all of its
// instructions in the slice loop, and arming any one hook that observes
// plain instructions takes the loop out entirely. A change that arms such
// a hook on every epoch (or stops using the loop) fails here, not in a
// noisy timing.
func TestSliceLoopShare(t *testing.T) {
	noop := map[string]func(h *vm.Hooks){
		"OnRetire":    func(h *vm.Hooks) { h.OnRetire = func(*vm.Thread, int, int64) {} },
		"OnMemAccess": func(h *vm.Hooks) { h.OnMemAccess = func(int, vm.Word, bool) {} },
		"OnMemWrite":  func(h *vm.Hooks) { h.OnMemWrite = func(int, vm.Word, vm.Word, vm.Word) {} },
	}
	for _, wl := range workloads.All() {
		t.Run(wl.Name, func(t *testing.T) {
			prog, res := recordScaled(t, wl.Name, 4, 2)
			rec := res.Recording
			var total uint64
			for _, n := range rec.Epochs[len(rec.Epochs)-1].Targets {
				total += n
			}
			rep, err := replay.Run(context.Background(), prog, replay.FromRecording(rec), replay.Options{})
			if err != nil {
				t.Fatal(err)
			}
			share := float64(rep.LoopInstrs) / float64(total)
			t.Logf("%d of %d instructions in the loop (%.2f%%)", rep.LoopInstrs, total, 100*share)
			if share < minLoopShare || rep.LoopInstrs > total {
				t.Errorf("loop share %.4f, want [%.2f, 1]", share, minLoopShare)
			}

			for hook, arm := range noop {
				m := vm.NewMachine(prog, nil, nil)
				for _, ep := range rec.Epochs {
					st, err := replay.NewStepper(m, ep, rec.Quantum, nil)
					if err != nil {
						t.Fatal(err)
					}
					arm(&m.Hooks)
					if _, err := st.Run(); err != nil {
						t.Fatalf("%s armed: %v", hook, err)
					}
					if n := st.LoopRetired(); n != 0 {
						t.Fatalf("%s armed: epoch %d retired %d instructions in the slice loop", hook, ep.Index, n)
					}
				}
				if m.StateHash() != rec.FinalHash {
					t.Fatalf("%s armed: final hash differs", hook)
				}
			}
		})
	}
}
