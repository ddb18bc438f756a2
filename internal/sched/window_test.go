package sched_test

import (
	"testing"

	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// minWindowShare is the least share of a thread-parallel run's
// instructions that must retire inside windows, four workers on four
// CPUs. What stays outside is whatever ends a window: sync ops, syscalls,
// the instruction after a quantum. The racy guests are not held to
// anything; their windows abort.
func minWindowShare(workload string) float64 {
	switch workload {
	case "fft", "lu", "radix", "ocean", "water":
		return 0.97
	case "kvdb":
		return 0.90
	}
	return 0
}

// TestParallelWindowShare makes the windows' traffic a count, as
// TestSliceLoopShare does for the slice loop: on the compute kernels most
// instructions of a hook-free thread-parallel run retire inside windows,
// and arming any one hook that observes plain instructions takes the
// windows out entirely and changes nothing else. A change that arms such a
// hook on the recorder's machine (or stops opening windows) fails here,
// not in a noisy timing.
func TestParallelWindowShare(t *testing.T) {
	noop := map[string]func(h *vm.Hooks){
		"OnRetire":    func(h *vm.Hooks) { h.OnRetire = func(*vm.Thread, int, int64) {} },
		"OnMemAccess": func(h *vm.Hooks) { h.OnMemAccess = func(int, vm.Word, bool) {} },
		"OnMemWrite":  func(h *vm.Hooks) { h.OnMemWrite = func(int, vm.Word, vm.Word, vm.Word) {} },
	}
	run := func(t *testing.T, wl *workloads.Workload, arm func(h *vm.Hooks)) (*sched.Parallel, uint64) {
		bt := wl.Build(workloads.Params{Workers: 4, Seed: 17})
		m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
		if arm != nil {
			arm(&m.Hooks)
		}
		p := sched.NewParallel(m, 4, 17)
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return p, m.StateHash()
	}
	for _, wl := range workloads.All() {
		t.Run(wl.Name, func(t *testing.T) {
			p, hash := run(t, wl, nil)
			share := float64(p.WindowRetired) / float64(p.Retired())
			t.Logf("%d of %d instructions in %d windows (%.1f%%); %d cut short by an event, %d abandoned on a conflict; %d executed",
				p.WindowRetired, p.Retired(), p.Windows, 100*share, p.WindowEventAborts, p.WindowConflictAborts, p.WindowExecuted)
			if share < minWindowShare(wl.Name) || p.WindowRetired > p.Retired() {
				t.Errorf("window share %.4f, want [%.2f, 1]", share, minWindowShare(wl.Name))
			}
			// Every committed instruction was executed once at least.
			if p.WindowExecuted < p.WindowRetired {
				t.Errorf("%d instructions executed in windows, %d committed", p.WindowExecuted, p.WindowRetired)
			}
			// Conflicting accesses of a race-free guest are ordered through
			// sync operations, and every one of those ends a window.
			if !wl.Racy && p.WindowConflictAborts != 0 {
				t.Errorf("race-free guest: %d windows abandoned on a conflict", p.WindowConflictAborts)
			}
			for hook, arm := range noop {
				q, h := run(t, wl, arm)
				if q.WindowRetired != 0 || q.Windows != 0 || q.WindowEventAborts != 0 || q.WindowConflictAborts != 0 || q.WindowExecuted != 0 {
					t.Fatalf("%s armed: %d instructions in %d windows, %d + %d abandoned",
						hook, q.WindowRetired, q.Windows, q.WindowEventAborts, q.WindowConflictAborts)
				}
				if q.WallTime() != p.WallTime() || q.Retired() != p.Retired() || h != hash {
					t.Fatalf("%s armed: ended at %d after %d instructions in state %016x; with windows at %d after %d in %016x",
						hook, q.WallTime(), q.Retired(), h, p.WallTime(), p.Retired(), hash)
				}
			}
		})
	}
}
