package core

import (
	"runtime"
	"runtime/metrics"
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

// BenchmarkRecordHeld measures what a recording holds once Record returns
// and what it allocates on the way: webserve on 4 workers and 2 spares,
// seed 11, at scale 16 and 64 and at scale 64 with 2,500-cycle epochs
// (about 5,000 epochs), each keeping every boundary (the zero value) and
// the final one only (what a record job keeps). held_MB is the live heap
// after two collections with the result still referenced, less the live
// heap before the call; alloc_MB is what the call allocated. Both come
// from runtime/metrics, and held_MB includes the pages mem's free list
// keeps for reuse.
func BenchmarkRecordHeld(b *testing.B) {
	for _, row := range []struct {
		name   string
		scale  int
		cycles int64
	}{
		{"scale16", 16, 0},
		{"scale64", 64, 0},
		{"scale64-epoch2500", 64, 2_500},
	} {
		for _, keep := range []struct {
			name string
			n    int
		}{{"all", 0}, {"final", -1}} {
			b.Run(row.name+"/"+keep.name, func(b *testing.B) {
				var held, alloc uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					bt := workloads.Get("webserve").Build(workloads.Params{Workers: 4, Scale: row.scale, Seed: 11})
					live, allocs := heapLive(), heapAllocs()
					b.StartTimer()
					res, err := Record(bt.Prog, bt.World, Options{Workers: 4, SpareCPUs: 2, Seed: 11,
						EpochCycles: row.cycles, KeepBoundaries: keep.n})
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					alloc += heapAllocs() - allocs
					held += heapLive() - live
					res.ReleaseCheckpoints()
					b.StartTimer()
				}
				b.ReportMetric(float64(held)/1e6/float64(b.N), "held_MB")
				b.ReportMetric(float64(alloc)/1e6/float64(b.N), "alloc_MB")
			})
		}
	}
}

// heapLive is the live heap after two collections.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	return readMetric("/gc/heap/live:bytes")
}

// heapAllocs is the bytes allocated on the heap so far.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes") }

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
