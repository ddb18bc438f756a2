package vm_test

import (
	"testing"

	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// benchQuantum is the timeslice of the benchmarks' round-robin driver.
const benchQuantum = 1000

// benchMachine builds the layer benchmark's guest: the fft kernel on four
// workers against the live simulated OS — compute, calls, loads and stores,
// a few locks and barriers, no blocking syscalls.
func benchMachine(b testing.TB) *vm.Machine {
	b.Helper()
	bt := workloads.Get("fft").Build(workloads.Params{Workers: 4, Seed: 17})
	return vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
}

// drive runs m to completion round-robin, a quantum per live thread per
// round, and returns the instructions retired. slice retires up to n
// instructions of one thread and reports how many; it stops short only at
// an instruction that did not retire. Both benchmarks use this driver, so
// they execute the same interleaving and differ only in how a quantum is
// retired.
func drive(b testing.TB, m *vm.Machine, slice func(t *vm.Thread, n uint64) uint64) uint64 {
	var total uint64
	for !m.Done() {
		var round uint64
		for i := 0; i < len(m.Threads); i++ {
			if t := m.Threads[i]; t.Status.Live() {
				round += slice(t, benchQuantum)
			}
		}
		if round == 0 {
			b.Fatalf("guest stuck:\n%s", m.DescribeState())
		}
		total += round
	}
	return total
}

func benchDrive(b *testing.B, hooks vm.Hooks, slice func(m *vm.Machine, t *vm.Thread, n uint64) uint64) {
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchMachine(b)
		m.Hooks = hooks
		b.StartTimer()
		instrs += drive(b, m, func(t *vm.Thread, n uint64) uint64 { return slice(m, t, n) })
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}

// stepN retires up to n instructions of t one Step at a time.
func stepN(m *vm.Machine, t *vm.Thread, n uint64) uint64 {
	var k uint64
	for k < n && t.Status.Live() && m.Step(t).Retired {
		k++
	}
	return k
}

// BenchmarkStep is the per-instruction path: Machine.Step with no hook,
// with OnRetire armed (the profiler's and the debugger's configuration)
// and with OnMemWrite armed (watchpoints).
func BenchmarkStep(b *testing.B) {
	var sink int64
	for _, c := range []struct {
		name  string
		hooks vm.Hooks
	}{
		{"nil", vm.Hooks{}},
		{"OnRetire", vm.Hooks{OnRetire: func(t *vm.Thread, pc int, cost int64) { sink += cost }}},
		{"OnMemWrite", vm.Hooks{OnMemWrite: func(tid int, addr, old, val vm.Word) { sink += val }}},
	} {
		b.Run(c.name, func(b *testing.B) { benchDrive(b, c.hooks, stepN) })
	}
}

// sliceN retires up to n instructions of t the way sched.Uni retires a
// hook-free slice: RunSlice for the plain instructions, one Step for
// whatever it stopped before.
func sliceN(m *vm.Machine, t *vm.Thread, n uint64) uint64 {
	var k uint64
	for k < n {
		r, _ := m.RunSlice(t, n-k)
		if k += r; k == n || !t.Status.Live() || !m.Step(t).Retired {
			break
		}
		k++
	}
	return k
}

// BenchmarkRunSlice is the same guest and interleaving through the slice
// loop.
func BenchmarkRunSlice(b *testing.B) { benchDrive(b, vm.Hooks{}, sliceN) }
