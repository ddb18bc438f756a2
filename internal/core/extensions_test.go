package core

import (
	"testing"

	"doubleplay/internal/epoch"
	"doubleplay/internal/replay"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

func TestDetectRacesDuringRecording(t *testing.T) {
	wl := workloads.Get("webserve-racy")
	bt := wl.Build(workloads.Params{Workers: 4, Seed: 6})
	res, err := Record(bt.Prog, bt.World, Options{
		Workers: 4, SpareCPUs: 4, Seed: 6, DetectRaces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 1 {
		t.Fatalf("webserve-racy has one racy cell; detector found %v", res.Races)
	}

	clean := workloads.Get("kvdb").Build(workloads.Params{Workers: 4, Seed: 6})
	res, err = Record(clean.Prog, clean.World, Options{
		Workers: 4, SpareCPUs: 4, Seed: 6, DetectRaces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 0 {
		t.Fatalf("false positives on kvdb during recording: %v", res.Races)
	}
}

func TestDetectRacesOffByDefault(t *testing.T) {
	prog := racyProg(2, 100)
	res, err := Record(prog, simos.NewWorld(1), Options{Workers: 2, SpareCPUs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Races != nil {
		t.Fatal("races reported without DetectRaces")
	}
}

func TestCommitHashChainsMonotonically(t *testing.T) {
	wl := workloads.Get("webserve")
	bt := wl.Build(workloads.Params{Workers: 2, Seed: 6})
	res, err := Record(bt.Prog, bt.World, Options{Workers: 2, SpareCPUs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// The final epoch's commit hash is the recording's output hash, and
	// commit hashes change across epochs as the server emits responses.
	eps := res.Recording.Epochs
	if eps[len(eps)-1].CommitHash != res.OutputHash {
		t.Fatal("final commit hash != recording output hash")
	}
	changes := 0
	for i := 1; i < len(eps); i++ {
		if eps[i].CommitHash != eps[i-1].CommitHash {
			changes++
		}
	}
	if changes == 0 {
		t.Fatal("output commit never advanced across epochs")
	}
}

// TestRerunEpochsReplay records the I/O guests without the sync gate, so
// that epochs diverge and some are re-run on one CPU against the live world,
// where a syscall can complete while the CPU idles. Every recording must
// replay to its final hash, sequentially and from every boundary.
func TestRerunEpochsReplay(t *testing.T) {
	reruns := 0
	for _, name := range []string{"webserve", "webserve-racy"} {
		for _, seed := range []int64{3, 17} {
			bt := workloads.Get(name).Build(workloads.Params{Workers: 3, Seed: seed})
			res, err := Record(bt.Prog, bt.World, Options{
				Workers: 3, SpareCPUs: 3, EpochCycles: 6000, Seed: seed,
				DisableSyncEnforcement: true,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			reruns += res.Stats.RerunRecoveries
			for _, bs := range [][]*epoch.Boundary{nil, res.Boundaries} {
				rep, err := replayFrom(bt.Prog, res.Recording, bs, 3)
				if err != nil || rep.FinalHash != res.FinalHash {
					t.Fatalf("%s seed %d (%d re-run epochs), %d boundaries: replay %v", name, seed, res.Stats.RerunRecoveries, len(bs), err)
				}
			}
		}
	}
	if reruns == 0 {
		t.Fatal("no epoch was re-run: the test exercises nothing")
	}
}

func TestThinBoundariesAndSparseReplay(t *testing.T) {
	wl := workloads.Get("ocean")
	bt := wl.Build(workloads.Params{Workers: 2, Seed: 6})
	res, err := Record(bt.Prog, bt.World, Options{Workers: 2, SpareCPUs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	full := len(res.Boundaries)
	if full < 8 {
		t.Fatalf("too few epochs (%d) for a meaningful thinning test", full-1)
	}
	for _, stride := range []int{1, 2, 4, full} {
		sparse := replay.Thin(res.Boundaries, stride)
		if stride > 1 && len(sparse) >= full {
			t.Fatalf("stride %d did not thin (%d of %d)", stride, len(sparse), full)
		}
		rep, err := replayFrom(bt.Prog, res.Recording, sparse, 4)
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		if rep.Epochs != len(res.Recording.Epochs) {
			t.Fatalf("stride %d replayed %d epochs", stride, rep.Epochs)
		}
	}
	// Coarser thinning means longer (less parallel) modelled replay.
	fine, _ := replayFrom(bt.Prog, res.Recording, replay.Thin(res.Boundaries, 1), 4)
	coarse, _ := replayFrom(bt.Prog, res.Recording, replay.Thin(res.Boundaries, full), 4)
	if coarse.Cycles < fine.Cycles {
		t.Fatalf("single-segment replay (%d) faster than fully parallel (%d)", coarse.Cycles, fine.Cycles)
	}
}

func TestSparseReplayRejectsBadBoundarySets(t *testing.T) {
	wl := workloads.Get("kvdb")
	bt := wl.Build(workloads.Params{Workers: 2, Seed: 6})
	res, err := Record(bt.Prog, bt.World, Options{Workers: 2, SpareCPUs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Missing epoch 0.
	if _, err := replayFrom(bt.Prog, res.Recording, res.Boundaries[1:], 2); err == nil {
		t.Fatal("sparse set without epoch 0 accepted")
	}
	// A boundary past the end of the recording.
	far := *res.Boundaries[1]
	far.Index = len(res.Recording.Epochs) + 1
	if _, err := replayFrom(bt.Prog, res.Recording, []*epoch.Boundary{res.Boundaries[0], &far}, 2); err == nil {
		t.Fatal("out-of-range boundary accepted")
	}
	// No boundaries at all is not an error: it is sequential replay.
	if _, err := replayFrom(bt.Prog, res.Recording, nil, 2); err != nil {
		t.Fatalf("boundary-less replay: %v", err)
	}
}

func TestAdaptiveEpochGrowth(t *testing.T) {
	wl := workloads.Get("ocean")
	bt := wl.Build(workloads.Params{Workers: 2, Seed: 6})
	fixed, err := Record(bt.Prog, bt.World, Options{
		Workers: 2, SpareCPUs: 2, Seed: 6, EpochCycles: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	bt = wl.Build(workloads.Params{Workers: 2, Seed: 6})
	grown, err := Record(bt.Prog, bt.World, Options{
		Workers: 2, SpareCPUs: 2, Seed: 6,
		EpochCycles: 5000, EpochGrowth: 1.5, EpochCyclesMax: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Stats.Epochs >= fixed.Stats.Epochs {
		t.Fatalf("growth did not reduce epoch count: %d vs %d",
			grown.Stats.Epochs, fixed.Stats.Epochs)
	}
	// The recording must still replay and self-check.
	if _, err := replay.Sequential(bt.Prog, grown.Recording, nil, nil); err != nil {
		t.Fatal(err)
	}
	last := grown.Boundaries[len(grown.Boundaries)-1]
	if err := bt.CheckOK(last.CP.MemSnap.Peek); err != nil {
		t.Fatal(err)
	}
	// Boundary spacing must actually grow.
	bs := grown.Boundaries
	first := bs[1].Cycle - bs[0].Cycle
	widest := int64(0)
	for i := 1; i < len(bs); i++ {
		if d := bs[i].Cycle - bs[i-1].Cycle; d > widest {
			widest = d
		}
	}
	if widest < 2*first {
		t.Fatalf("epoch spacing never grew: first %d, widest %d", first, widest)
	}
}

func TestAdaptiveGrowthResetsOnDivergence(t *testing.T) {
	prog := racyProg(3, 2000)
	res, err := Record(prog, simos.NewWorld(4), Options{
		Workers: 3, SpareCPUs: 3, Seed: 4,
		EpochCycles: 2000, EpochGrowth: 2.0, EpochCyclesMax: 64_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Sequential(prog, res.Recording, nil, nil); err != nil {
		t.Fatalf("replay after %d divergences: %v", res.Stats.Divergences, err)
	}

	// The epoch after a divergence runs at the base length again, even when
	// the epoch that diverged had grown (it followed a clean one). With no
	// record-time costs a clean epoch's boundary spacing is its length; a
	// diverged epoch's is not. webserve-racy diverges now and then.
	costs := *vm.DefaultCosts()
	costs.SyncLogEvent, costs.SysLogEvent, costs.CowCopyPage = 0, 0, 0
	costs.CheckpointBase, costs.CheckpointPage = 0, 0
	bt := workloads.Get("webserve-racy").Build(workloads.Params{Workers: 4, Seed: 3})
	res, err = Record(bt.Prog, bt.World, Options{
		Workers: 4, SpareCPUs: 4, Seed: 3, Costs: &costs,
		EpochCycles: 2000, EpochGrowth: 2.0, EpochCyclesMax: 64_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	diverged := map[int]bool{}
	for _, d := range res.Divergences {
		diverged[d.Epoch] = true
	}
	bs, reset := res.Boundaries, 0
	for i := 1; i+2 < len(bs); i++ {
		if !diverged[i] || diverged[i-1] || diverged[i+1] {
			continue
		}
		reset++
		if n := bs[i+2].Cycle - bs[i+1].Cycle; n >= 3000 {
			t.Errorf("epoch %d after the divergence at epoch %d ran %d cycles, want about 2000", i+1, i, n)
		}
	}
	if reset == 0 {
		t.Fatalf("no grown epoch diverged (%d divergences): the check exercises nothing", res.Stats.Divergences)
	}
}

func TestDivergenceForensics(t *testing.T) {
	prog := racyProg(4, 500)
	found := false
	for seed := int64(0); seed < 6 && !found; seed++ {
		res, err := Record(prog, simos.NewWorld(seed), Options{
			Workers: 4, SpareCPUs: 4, EpochCycles: 3000, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Divergences) != res.Stats.Divergences {
			t.Fatalf("forensics count %d != stat %d", len(res.Divergences), res.Stats.Divergences)
		}
		for _, d := range res.Divergences {
			if d.Kind != "state" && d.Kind != "input" {
				t.Fatalf("bad kind %q", d.Kind)
			}
			if d.Kind == "state" {
				found = true
				if len(d.Pages) == 0 {
					t.Fatal("state divergence with no differing pages")
				}
			}
		}
	}
	if !found {
		t.Log("note: no state divergence observed across seeds")
	}
}

func TestReleaseCheckpoints(t *testing.T) {
	prog, _ := lockedCounterProg(2, 200)
	res, err := Record(prog, simos.NewWorld(2), Options{Workers: 2, SpareCPUs: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res.ReleaseCheckpoints()
	if res.Boundaries != nil {
		t.Fatal("boundaries not cleared")
	}
	// Sequential replay needs no checkpoints and must still work.
	if _, err := replay.Sequential(prog, res.Recording, nil, nil); err != nil {
		t.Fatal(err)
	}
}
