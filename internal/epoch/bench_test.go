package epoch_test

import (
	"strings"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/epoch"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// BenchmarkRun is the recorder's epoch-parallel pass on its own: every
// epoch of one recording run again from its retained start boundary —
// checkpoint restore, gate and injector set-up, the gated free run that
// logs the schedule, the leftover proof, the end-state hash and the
// release of the machine's pages — over one I/O-heavy server and one
// compute kernel. The plain cases build each epoch's machine anew with
// Run; the -slot cases run every epoch on one warm Slot, which reloads its
// machine as the recorder's verifier does. An op is one pass over the
// recording's epochs; ns/instr is host time per guest instruction of the
// epochs run.
func BenchmarkRun(b *testing.B) {
	costs := vm.DefaultCosts()
	for _, name := range []string{"kvdb", "fft", "kvdb-slot", "fft-slot"} {
		b.Run(name, func(b *testing.B) {
			w, slotted := strings.CutSuffix(name, "-slot")
			bt := workloads.Get(w).Build(workloads.Params{Workers: 4, Seed: 17})
			res, err := core.Record(bt.Prog, bt.World, core.Options{Workers: 4, SpareCPUs: 4, Seed: 17})
			if err != nil {
				b.Fatal(err)
			}
			rec := res.Recording
			var instrs uint64 // retired by one pass over rec
			for _, n := range rec.Epochs[len(rec.Epochs)-1].Targets {
				instrs += n
			}
			run := epoch.Run
			if slotted {
				run = new(epoch.Slot).Run
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, ep := range rec.Epochs {
					r, err := run(epoch.RunSpec{
						Prog: bt.Prog, Start: res.Boundaries[k], Targets: ep.Targets,
						SyncOrder: ep.SyncOrder, Syscalls: ep.Syscalls, Signals: ep.Signals,
						Quantum: rec.Quantum, Costs: costs,
					})
					if err != nil || r.EndHash != ep.EndHash {
						b.Fatalf("epoch %d: %016x, %v; logged end %016x", k, r.EndHash, err, ep.EndHash)
					}
					r.M.Mem.Release() // as the recorder does once the verdict is in
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(instrs)*float64(b.N)), "ns/instr")
		})
	}
}
