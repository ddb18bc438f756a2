package sched

import (
	"fmt"
	"math"
	"math/bits"
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

// sameSchedule reports how p and q differ in what the strict loop carries
// from one retirement to the next: the jitter stream and what was drawn
// from it, and every CPU's clock, slice and thread.
func sameSchedule(p, q *Parallel) error {
	if p.jitter != q.jitter || p.jitterGap != q.jitterGap || p.jitterExtra != q.jitterExtra || p.retired != q.retired {
		return fmt.Errorf("retired %d / %d, jitter gap %d / %d, extra %d / %d, ring at %d / %d",
			p.retired, q.retired, p.jitterGap, q.jitterGap, p.jitterExtra, q.jitterExtra, p.jitter.pos, q.jitter.pos)
	}
	tid := func(th *vm.Thread) int {
		if th == nil {
			return -1
		}
		return th.ID
	}
	for ci := range p.cpus {
		a, b := &p.cpus[ci], &q.cpus[ci]
		if a.clock != b.clock || a.sliceN != b.sliceN || tid(a.th) != tid(b.th) {
			return fmt.Errorf("CPU %d: clock %d / %d, slice %d / %d, thread %d / %d", ci, a.clock, b.clock, a.sliceN, b.sliceN, tid(a.th), tid(b.th))
		}
	}
	return nil
}

// TestWindowInvariants opens windows by hand, one strict pass between
// each, and checks around every attempt what DESIGN.md key decision 8
// promises of a window: no instruction in it starts at or after the limit;
// a committed one leaves the jitter stream, what was drawn from it, every
// clock and every slice where a strict twin advanced to the same frontier
// has them; no CPU's slice reaches the quantum inside it; none opens while
// an idle CPU has a thread to dispatch; and an attempt that does not commit
// leaves every thread, every clock, the jitter and guest memory exactly as
// it found them. A committed window counts at least what it retired as
// executed (Parallel.WindowExecuted). The guests are a compute kernel, a
// syscall-heavy server with fewer threads than CPUs at times, and a racy
// program whose windows conflict.
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
			start := func() (*vm.Machine, *Parallel) {
				bt := workloads.Get(tc.guest).Build(workloads.Params{Workers: 4, Seed: 23})
				m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
				p := NewParallel(m, tc.cpus, 23)
				p.Quantum = tc.quantum
				return m, p
			}
			m, p := start()
			ref, strict := start()
			ref.Hooks.OnRetire = func(*vm.Thread, int, int64) {} // every instruction through Step, the reference
			rng := rand.New(rand.NewSource(5))
			var commits, refusals, aborts, slow int
			for !m.Done() {
				limit := p.Now() + int64(1+rng.Intn(60))
				threads, cpus := cloneThreads(m), append([]pcpu(nil), p.cpus...)
				jitter, gap, extra, retired, hash := p.jitter, p.jitterGap, p.jitterExtra, p.retired, m.Mem.Hash()
				pages, stats := m.Mem.PageCount(), m.Mem.Stats()
				mustRefuse := p.nBound < len(p.cpus) && p.dispatchable()
				conflicts, executed := p.WindowConflictAborts, p.WindowExecuted
				lo := int64(math.MaxInt64)
				for _, cpu := range cpus {
					if cpu.th != nil {
						lo = min(lo, cpu.clock)
					}
				}

				committed, _ := p.window(limit)

				n := p.retired - retired
				if committed {
					commits++
					if mustRefuse {
						t.Fatal("a window committed while an idle CPU had a thread to dispatch")
					}
					if n == 0 {
						t.Fatal("an empty window reported as committed")
					}
					if p.WindowExecuted-executed < n {
						t.Fatalf("a window committed %d instructions and counted %d executed", n, p.WindowExecuted-executed)
					}
					for ci := range p.cpus {
						cpu, w := &p.cpus[ci], &p.win[ci]
						if cpu.th == nil {
							continue
						}
						if cpu.th != cpus[ci].th || cpu.sliceN >= p.Quantum || cpu.sliceN != cpus[ci].sliceN+int64(w.retired) || cpu.clock != cpus[ci].clock+w.cycles+w.delay {
							t.Fatalf("CPU %d after the window: slice %d of %d (was %d, retired %d), clock %d (was %d, +%d+%d)",
								ci, cpu.sliceN, p.Quantum, cpus[ci].sliceN, w.retired, cpu.clock, cpus[ci].clock, w.cycles, w.delay)
						}
						if uint64(bits.OnesCount64(w.at)) != w.retired || lo+int64(bits.Len64(w.at)) > limit {
							t.Fatalf("CPU %d retired %d instructions starting at %b past %d, limit %d", ci, w.retired, w.at, lo, limit)
						}
					}
					if p.jitter != jitter {
						slow++
					}
					// The twin executes the same stretch one retirement at a time.
					if err := strict.RunUntil(p.Now()); err != nil {
						t.Fatal(err)
					}
					if err := sameSchedule(p, strict); err != nil {
						t.Fatalf("after a window of %d from %d, limit %d, the strict twin differs: %v", n, lo, limit, err)
					}
				} else {
					if mustRefuse {
						refusals++
					}
					if p.WindowConflictAborts != conflicts {
						aborts++
					}
					if n != 0 || !reflect.DeepEqual(cloneThreads(m), threads) || !reflect.DeepEqual(p.cpus, cpus) ||
						p.jitter != jitter || p.jitterGap != gap || p.jitterExtra != extra ||
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
			if err := strict.Run(); err != nil {
				t.Fatal(err)
			}
			if strict.Windows != 0 || p.WallTime() != strict.WallTime() || p.retired != strict.retired || m.StateHash() != ref.StateHash() {
				t.Fatalf("ended at %d after %d instructions in state %016x; the strict run (%d windows) at %d after %d in %016x",
					p.WallTime(), p.retired, m.StateHash(), strict.Windows, strict.WallTime(), strict.retired, ref.StateHash())
			}
			t.Logf("%d windows committed, %d of them with a slow retirement inside; %d refused for an idle CPU's sake, %d abandoned on a conflict",
				commits, slow, refusals, aborts)
			if commits == 0 || slow == 0 || tc.guest == "kvdb" && refusals == 0 || tc.guest == "racey" && aborts == 0 {
				t.Fatal("the guest no longer exercises what this test is for")
			}
		})
	}
}
