package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// cloneThreads deep-copies the guest's threads.
func cloneThreads(m *vm.Machine) []vm.Thread {
	out := make([]vm.Thread, len(m.Threads))
	for i, t := range m.Threads {
		out[i] = *t
		out[i].Frames = append([]vm.Frame(nil), t.Frames...)
	}
	return out
}

// TestWindowInvariants opens windows by hand, one strict pass between
// each, and checks around every attempt what DESIGN.md key decision 8
// promises of a window: it ends at or before the limit; it retires no more
// than the jitter gap, takes exactly that many off it and draws nothing;
// no CPU's slice reaches the quantum inside it; none opens while an idle
// CPU has a thread to dispatch; and an attempt that does not commit leaves
// every thread, every clock and guest memory exactly as it found them.
// The guests are a compute kernel, a syscall-heavy server with fewer
// threads than CPUs at times, and a racy program whose windows conflict.
func TestWindowInvariants(t *testing.T) {
	for _, tc := range []struct {
		guest   string
		cpus    int
		quantum int64
	}{
		{"fft", 4, DefaultQuantum},
		{"fft", 2, 37}, // more threads than CPUs: slices run out all the time
		{"kvdb", 5, DefaultQuantum},
		{"kvdb", 3, 150},
		{"racey", 4, DefaultQuantum},
		{"racey", 3, 61},
	} {
		t.Run(fmt.Sprintf("%s/cpus=%d", tc.guest, tc.cpus), func(t *testing.T) {
			bt := workloads.Get(tc.guest).Build(workloads.Params{Workers: 4, Seed: 23})
			m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
			p := NewParallel(m, tc.cpus, 23)
			p.Quantum = tc.quantum
			rng := rand.New(rand.NewSource(5))
			var commits, refusals, aborts int
			for !m.Done() {
				limit := p.Now() + int64(1+rng.Intn(60))
				threads, cpus := cloneThreads(m), append([]pcpu(nil), p.cpus...)
				gap, extra, retired, hash := p.jitterGap, p.jitterExtra, p.retired, m.Mem.Hash()
				pages, stats := m.Mem.PageCount(), m.Mem.Stats()
				mustRefuse := p.nBound < len(p.cpus) && p.dispatchable()
				conflicts := p.WindowConflictAborts

				committed, _ := p.window(limit)

				n := p.retired - retired
				if p.jitterExtra != extra || p.jitterGap != gap-int(n) || n > int64(gap) {
					t.Fatalf("window retired %d with a jitter gap of %d and left gap %d, extra %d→%d", n, gap, p.jitterGap, extra, p.jitterExtra)
				}
				if committed {
					commits++
					if mustRefuse {
						t.Fatal("a window committed while an idle CPU had a thread to dispatch")
					}
					if n == 0 {
						t.Fatal("an empty window reported as committed")
					}
					for ci := range p.cpus {
						cpu, w := &p.cpus[ci], &p.win[ci]
						if cpu.th == nil {
							continue
						}
						if cpu.th != cpus[ci].th || cpu.sliceN >= p.Quantum || cpu.sliceN != cpus[ci].sliceN+int64(w.retired) || cpu.clock != cpus[ci].clock+w.cycles {
							t.Fatalf("CPU %d after the window: slice %d of %d (was %d, retired %d), clock %d (was %d, +%d)",
								ci, cpu.sliceN, p.Quantum, cpus[ci].sliceN, w.retired, cpu.clock, cpus[ci].clock, w.cycles)
						}
						if w.retired > 0 && cpu.clock-w.last >= limit {
							t.Fatalf("CPU %d retired an instruction that started at %d, limit %d", ci, cpu.clock-w.last, limit)
						}
					}
				} else {
					if mustRefuse {
						refusals++
					}
					if p.WindowConflictAborts != conflicts {
						aborts++
					}
					if n != 0 || !reflect.DeepEqual(cloneThreads(m), threads) || !reflect.DeepEqual(p.cpus, cpus) ||
						m.Mem.Hash() != hash || m.Mem.PageCount() != pages || m.Mem.Stats() != stats {
						t.Fatalf("an attempt that did not commit changed the machine:\n%s", m.DescribeState())
					}
				}
				// One strict pass: RunUntil has no room for a window of its own.
				if err := p.RunUntil(p.Now() + 1); err != nil {
					t.Fatal(err)
				}
			}
			// And all of it together was the strict interleaving.
			bt = workloads.Get(tc.guest).Build(workloads.Params{Workers: 4, Seed: 23})
			ref := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
			ref.Hooks.OnRetire = func(*vm.Thread, int, int64) {}
			strict := NewParallel(ref, tc.cpus, 23)
			strict.Quantum = tc.quantum
			if err := strict.Run(); err != nil {
				t.Fatal(err)
			}
			if strict.Windows != 0 || p.WallTime() != strict.WallTime() || p.retired != strict.retired || m.StateHash() != ref.StateHash() {
				t.Fatalf("ended at %d after %d instructions in state %016x; the strict run (%d windows) at %d after %d in %016x",
					p.WallTime(), p.retired, m.StateHash(), strict.Windows, strict.WallTime(), strict.retired, ref.StateHash())
			}
			t.Logf("%d windows committed, %d refused for an idle CPU's sake, %d abandoned on a conflict", commits, refusals, aborts)
			if commits == 0 || tc.guest == "kvdb" && refusals == 0 || tc.guest == "racey" && aborts == 0 {
				t.Fatal("the guest no longer exercises what this test is for")
			}
		})
	}
}
