package sched_test

import (
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// benchGuests are the layer benchmark's two guests: one compute kernel
// and one I/O-heavy server, so a scheduler change that only costs on the
// syscall path (injection, blocked-sys polling) still shows.
var benchGuests = []string{"fft", "kvdb"}

func buildGuest(b *testing.B, name string) *workloads.Built {
	b.Helper()
	wl := workloads.Get(name)
	if wl == nil {
		b.Fatalf("no workload %s", name)
	}
	return wl.Build(workloads.Params{Workers: 4, Seed: 17})
}

// BenchmarkUniFree is logging mode: round-robin timeslicing of the whole
// guest against the live simulated OS, appending the schedule.
func BenchmarkUniFree(b *testing.B) {
	for _, name := range benchGuests {
		b.Run(name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bt := buildGuest(b, name)
				m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
				u := sched.NewUni(m)
				u.LogSchedule = true
				b.StartTimer()
				if err := u.Run(); err != nil {
					b.Fatal(err)
				}
				instrs += u.Retired()
			}
			b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
		})
	}
}

// BenchmarkParallel is the thread-parallel execution: four simulated CPUs
// run in clock order against the live simulated OS, the loop every
// recording and every native baseline run spends most of its time in. Two
// compute kernels, a racy program whose threads share words (windows abort
// and back off), and two syscall-heavy servers (windows cut short by
// events; webserve's are the shortest). window% is the share of
// instructions retired inside windows, instrs/window their mean number, and
// exec/commit how many instructions RunWindow executed for each one a
// window committed: what windows that are abandoned, cut short or charged a
// slow retirement run again.
func BenchmarkParallel(b *testing.B) {
	for _, name := range []string{"fft", "water", "racey", "kvdb", "webserve"} {
		b.Run(name, func(b *testing.B) {
			var instrs, inWindows, windows, executed int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bt := buildGuest(b, name)
				m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
				p := sched.NewParallel(m, 4, 17)
				b.StartTimer()
				if err := p.Run(); err != nil {
					b.Fatal(err)
				}
				instrs += p.Retired()
				inWindows += p.WindowRetired
				windows += p.Windows
				executed += p.WindowExecuted
			}
			b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
			b.ReportMetric(100*float64(inWindows)/float64(instrs), "window%")
			b.ReportMetric(float64(inWindows)/float64(max(windows, 1)), "instrs/window")
			b.ReportMetric(float64(executed)/float64(max(inWindows, 1)), "exec/commit")
		})
	}
}

// BenchmarkUniFollow is replay mode: every epoch of a recording followed
// from its checkpoint by epoch.Follow, its schedule, syscall results and
// signals injected — the loop sequential replay, epoch-parallel replay and
// the recorder's epoch-parallel run all sit on. The slice loop stops at
// each recorded signal's retired count and the scheduler delivers it;
// sigping is the guest whose epochs carry signals, so that stop keeps a
// number.
func BenchmarkUniFollow(b *testing.B) {
	for _, name := range append(benchGuests, "sigping") {
		b.Run(name, func(b *testing.B) {
			bt := buildGuest(b, name)
			res, err := core.Record(bt.Prog, bt.World, core.Options{Workers: 4, SpareCPUs: 4, Seed: 17})
			if err != nil {
				b.Fatal(err)
			}
			var instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, ep := range res.Recording.Epochs {
					b.StopTimer()
					m := res.Boundaries[k].CP.Restore(bt.Prog, nil, nil)
					u := epoch.Follow(m, ep, false, 0, nil).Uni
					b.StartTimer()
					if err := u.Run(); err != nil {
						b.Fatal(err)
					}
					instrs += u.Retired()
				}
			}
			b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
		})
	}
}
