package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"doubleplay/internal/replay"
	"doubleplay/internal/simos"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.RecordCPUs != 2 || o.EpochCycles != DefaultEpochCycles || o.Quantum <= 0 || o.Costs == nil || o.MaxEpochs <= 0 {
		t.Fatalf("defaults: %+v", o)
	}
	o = Options{Workers: 4}.withDefaults()
	if o.RecordCPUs != 5 {
		t.Fatalf("RecordCPUs = %d, want workers+1", o.RecordCPUs)
	}
}

func TestPipelineSpareScheduling(t *testing.T) {
	p := newPipeline(2, 2, 4)
	// Epoch 0: checkpoint 0 at t=0, checkpoint 1 at t=100, runs 300 cycles.
	f0 := p.schedule(0, 100, 300)
	if f0.finish != 300 || f0.slot != 0 || f0.start != 0 {
		t.Fatalf("f0 = %+v, want finish 300 on slot 0 from 0", f0)
	}
	// Epoch 1: starts at its checkpoint (t=100) on the second spare core.
	f1 := p.schedule(100, 200, 300)
	if f1.finish != 400 || f1.slot != 1 || f1.start != 100 {
		t.Fatalf("f1 = %+v, want finish 400 on slot 1 from 100", f1)
	}
	// Epoch 2: both cores busy until 300; starts there.
	f2 := p.schedule(200, 300, 300)
	if f2.finish != 600 || f2.start != 300 {
		t.Fatalf("f2 = %+v, want finish 600 from 300", f2)
	}
	// An epoch cannot commit before its end checkpoint exists.
	f3 := p.schedule(300, 5000, 10)
	if f3.finish != 5000 {
		t.Fatalf("f3 = %+v, want finish 5000 (end-checkpoint bound)", f3)
	}
	if got := p.completion(450); got != 5000 {
		t.Fatalf("completion = %d", got)
	}
}

func TestPipelineUtilizedDisplacement(t *testing.T) {
	p := newPipeline(0, 0, 4)
	p.schedule(0, 100, 400)
	p.schedule(100, 200, 400)
	// Total epoch work 800 over 4 cores displaces 200 cycles.
	if got := p.completion(1000); got != 1200 {
		t.Fatalf("utilized completion = %d, want 1200", got)
	}
}

func TestRecordProducesChainedEpochs(t *testing.T) {
	prog, _ := lockedCounterProg(2, 500)
	res, err := Record(prog, simos.NewWorld(3), Options{
		Workers: 2, SpareCPUs: 2, EpochCycles: 3000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recording
	if len(res.Boundaries) != len(rec.Epochs)+1 {
		t.Fatalf("%d boundaries for %d epochs", len(res.Boundaries), len(rec.Epochs))
	}
	for i, ep := range rec.Epochs {
		if ep.StartHash != res.Boundaries[i].Hash {
			t.Fatalf("epoch %d start hash does not match its boundary", i)
		}
		if ep.EndHash != res.Boundaries[i+1].Hash {
			t.Fatalf("epoch %d end hash does not match the next boundary", i)
		}
		// Targets must be monotone across epochs for every thread.
		if i > 0 {
			prev := rec.Epochs[i-1].Targets
			for tid := range prev {
				if tid < len(ep.Targets) && ep.Targets[tid] < prev[tid] {
					t.Fatalf("epoch %d target regressed for tid %d", i, tid)
				}
			}
		}
	}
	if rec.FinalHash != res.Boundaries[len(res.Boundaries)-1].Hash {
		t.Fatal("final hash is not the last boundary hash")
	}
	if res.Stats.CompletionCycles < res.Stats.ThreadParallelCycles {
		t.Fatal("completion earlier than thread-parallel finish")
	}
}

func TestUtilizedModeRecordsAndReplays(t *testing.T) {
	prog, ok := mixedProg(2, 150)
	res := recordAndCheck(t, prog, ok, Options{Workers: 2, SpareCPUs: 0, EpochCycles: 4000, Seed: 5})
	if _, err := replay.Sequential(prog, res.Recording, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Utilized completion must include displaced epoch work.
	if res.Stats.CompletionCycles <= res.Stats.ThreadParallelCycles {
		t.Fatal("utilized mode shows no displacement")
	}
}

func TestDisableSyncEnforcementCausesDivergences(t *testing.T) {
	// A lock-contended program under the ablation: lock-order races surface
	// as divergences, yet forward recovery still yields a valid recording.
	prog, _ := lockedCounterProg(3, 400)
	div := 0
	for seed := int64(0); seed < 4; seed++ {
		res, err := Record(prog, simos.NewWorld(seed), Options{
			Workers: 3, SpareCPUs: 3, EpochCycles: 2500, Seed: seed,
			DisableSyncEnforcement: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		div += res.Stats.Divergences
		if _, err := replay.Sequential(prog, res.Recording, nil, nil); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
	}
	if div == 0 {
		t.Fatal("no divergences without the gate on a lock-contended program")
	}
}

func TestMaxEpochsGuards(t *testing.T) {
	prog, _ := lockedCounterProg(2, 5000)
	_, err := Record(prog, simos.NewWorld(1), Options{
		Workers: 2, SpareCPUs: 2, EpochCycles: 1000, Seed: 1, MaxEpochs: 3,
	})
	if err == nil {
		t.Fatal("MaxEpochs not enforced")
	}
}

// TestTooManyEpochsIsTheSentinel pins that running past MaxEpochs is
// reported as the exported, documented error, so a caller can tell a
// runaway guest from any other recording failure.
func TestTooManyEpochsIsTheSentinel(t *testing.T) {
	prog, _ := lockedCounterProg(2, 5000)
	res, err := Record(prog, simos.NewWorld(1), Options{
		Workers: 2, SpareCPUs: 2, EpochCycles: 1000, Seed: 1, MaxEpochs: 2,
	})
	if !errors.Is(err, ErrTooManyEpochs) {
		t.Fatalf("Record with MaxEpochs 2 on a longer guest = (%v, %v), want ErrTooManyEpochs", res, err)
	}
	if !strings.Contains(err.Error(), "exceeded 2") {
		t.Fatalf("error %q does not name the bound", err)
	}
}

func TestRecordingMetadata(t *testing.T) {
	prog, _ := lockedCounterProg(2, 100)
	res, err := Record(prog, simos.NewWorld(9), Options{Workers: 2, SpareCPUs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recording
	if rec.Program != prog.Name || rec.Workers != 2 || rec.Seed != 9 {
		t.Fatalf("metadata: %+v", rec)
	}
	if res.Stats.ReplayBytes <= 0 || res.Stats.FullBytes < res.Stats.ReplayBytes {
		t.Fatalf("sizes: %+v", res.Stats)
	}
	if res.Stats.FileBytes <= 0 {
		t.Fatalf("file bytes: %+v", res.Stats)
	}
}

// TestQuickRecordReplayRandomPrograms is the central property test: for
// randomly sized race-free programs under random seeds, recording never
// diverges and both replay modes reproduce the recording.
func TestQuickRecordReplayRandomPrograms(t *testing.T) {
	f := func(seed int64, w8, iters16 uint8) bool {
		workers := 2 + int(w8)%3
		iters := 100 + int(iters16)*4
		prog, okCell := mixedProg(workers, iters)
		res, err := Record(prog, simos.NewWorld(seed), Options{
			Workers: workers, SpareCPUs: workers, EpochCycles: 3000, Seed: seed,
		})
		if err != nil {
			t.Logf("record: %v", err)
			return false
		}
		if res.Stats.Divergences != 0 || res.Stats.GuestFaults != 0 {
			t.Logf("divergences=%d faults=%d", res.Stats.Divergences, res.Stats.GuestFaults)
			return false
		}
		last := res.Boundaries[len(res.Boundaries)-1]
		if last.CP.MemSnap.Peek(okCell) != 1 {
			t.Log("self-check failed")
			return false
		}
		if _, err := replay.Sequential(prog, res.Recording, nil, nil); err != nil {
			t.Logf("seq replay: %v", err)
			return false
		}
		if _, err := replayFrom(prog, res.Recording, res.Boundaries, workers); err != nil {
			t.Logf("par replay: %v", err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
