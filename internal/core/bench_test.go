package core

import (
	"testing"
	"time"

	"doubleplay/internal/workloads"
)

// BenchmarkRecord measures a whole recording — thread-parallel run, epoch
// captures, epoch-parallel verification, forward recovery for the racy
// program, and the final log sizing — over the program mix the host-time
// benchmark's record-compute workload records, at that workload's size.
// Throughput is guest instructions recorded per second of host time; run
// with -benchmem, since what a recording allocates is part of its cost.
//
// Each iteration also runs every build natively (RunNative, same CPUs and
// seed) with the timer stopped, and x_native reports record wall time over
// native wall time: the host-clock recording overhead that taking
// verification off the critical path would cut.
func BenchmarkRecord(b *testing.B) {
	b.ReportAllocs()
	var instrs int64
	var native time.Duration
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"fft", "lu", "radix", "ocean", "water", "racey"} {
			b.StopTimer()
			p := workloads.Params{Workers: 4, Scale: 2, Seed: 17}
			bt := workloads.Get(name).Build(p)
			b.StartTimer()
			res, err := Record(bt.Prog, bt.World, Options{Workers: 4, RecordCPUs: 4, SpareCPUs: 4, Seed: 17})
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.Stats.Retired
			res.ReleaseCheckpoints()
			b.StopTimer()
			nat := workloads.Get(name).Build(p)
			t0 := time.Now()
			if _, err := RunNative(nat.Prog, nat.World, 4, 17, nil); err != nil {
				b.Fatal(err)
			}
			native += time.Since(t0)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
	b.ReportMetric(b.Elapsed().Seconds()/native.Seconds(), "x_native")
}
