package replay_test

import (
	"context"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/workloads"
)

// BenchmarkRun measures the replay layer where every caller enters it:
// the three plan shapes of Run, the sparse plan of a log with no
// checkpoints at stride 4 (the daemon's replay by id), and a recording
// stepped one instruction at a time (the debugger's path), each over one
// compute kernel and one I/O-heavy server. Every plan runs over the
// decoded recording and, as "-reader", over a reader of its marshalled
// log — the source replay-io and the daemon replay from, which decodes
// each section as a segment reaches it. Throughput is guest instructions
// retired per second of host time.
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"fft", "kvdb"} {
		bt := workloads.Get(name).Build(workloads.Params{Workers: 4, Seed: 17})
		res, err := core.Record(bt.Prog, bt.World, core.Options{Workers: 4, SpareCPUs: 4, Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		rec := res.Recording
		rd, err := dplog.OpenReaderBytes(dplog.MarshalBytes(rec))
		if err != nil {
			b.Fatal(err)
		}
		var instrs uint64 // retired by one replay of rec
		for _, n := range rec.Epochs[len(rec.Epochs)-1].Targets {
			instrs += n
		}
		bench := func(how string, replayOnce func() error) {
			b.Run(how+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := replayOnce(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(instrs)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Minstr/s")
			})
		}
		for _, p := range plans(res) {
			for _, s := range []struct {
				suffix string
				src    replay.Source
			}{{"", replay.FromRecording(rec)}, {"-reader", replay.FromReader(rd)}} {
				bench(p.name+s.suffix, func() error {
					_, err := replay.Run(context.Background(), bt.Prog, s.src, p.options(2))
					return err
				})
			}
		}
		bench("stepped", func() error { return steppedReplay(bt.Prog, rec) })
	}
}
