package core

import (
	"testing"

	"doubleplay/internal/workloads"
)

// BenchmarkRecord measures a whole recording — thread-parallel run, epoch
// captures, epoch-parallel verification, forward recovery for the racy
// program, and the final log sizing — over the program mix the host-time
// benchmark's record-compute workload records, at that workload's size.
// Throughput is guest instructions recorded per second of host time; run
// with -benchmem, since what a recording allocates is part of its cost.
func BenchmarkRecord(b *testing.B) {
	b.ReportAllocs()
	var instrs int64
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"fft", "lu", "radix", "ocean", "water", "racey"} {
			b.StopTimer()
			bt := workloads.Get(name).Build(workloads.Params{Workers: 4, Scale: 2, Seed: 17})
			b.StartTimer()
			res, err := Record(bt.Prog, bt.World, Options{Workers: 4, RecordCPUs: 4, SpareCPUs: 4, Seed: 17})
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.Stats.Retired
			res.ReleaseCheckpoints()
		}
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}
