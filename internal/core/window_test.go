package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"doubleplay/internal/epoch"
	"doubleplay/internal/replay"
	"doubleplay/internal/workloads"
)

// windowCases are a recording of many epochs, one whose every epoch
// adopts the epoch-parallel state, and one whose ungated lock races re-run
// epochs against the live world.
var windowCases = []struct {
	name, wl string
	p        workloads.Params
	opt      Options
}{
	{"many", "webserve", workloads.Params{Workers: 4, Scale: 2, Seed: 11},
		Options{Workers: 4, SpareCPUs: 2, Seed: 11, EpochCycles: 2_500}},
	{"adopt", "racey", workloads.Params{Workers: 4, Seed: 3},
		Options{Workers: 4, SpareCPUs: 4, Seed: 3, EpochCycles: 2_000}},
	{"rerun", "webserve-racy", workloads.Params{Workers: 3, Seed: 3},
		Options{Workers: 3, SpareCPUs: 3, Seed: 3, EpochCycles: 6_000, DisableSyncEnforcement: true}},
}

// TestWindowHoldsTwoWorlds holds the recorder to its window: whatever the
// epoch count, its boundaries hold at most two worlds (a pending epoch's
// start and the latest boundary), and a returned boundary holds none.
func TestWindowHoldsTwoWorlds(t *testing.T) {
	for _, tc := range windowCases {
		t.Run(tc.name, func(t *testing.T) {
			res, counts := recordCountingWorlds(t, tc.wl, tc.p, tc.opt)
			defer res.ReleaseCheckpoints()
			if res.Stats.Epochs < 30 {
				t.Fatalf("%d epochs; the case should run many", res.Stats.Epochs)
			}
			for i, n := range counts {
				if n > 2 {
					t.Fatalf("step %d of %d: boundaries hold %d worlds, want at most 2", i, len(counts), n)
				}
			}
			for _, b := range res.Boundaries {
				if b.World != nil {
					t.Fatalf("returned boundary %d holds a world", b.Index)
				}
			}
			t.Logf("%d epochs, %d state and %d input recoveries",
				res.Stats.Epochs, res.Stats.HashRecoveries, res.Stats.RerunRecoveries)
		})
	}
}

// TestKeepBoundaries holds Options.KeepBoundaries to replay.Thin: for every
// stride the kept set is Thin of every boundary, by index and hash, and
// final-only keeps the last; the recording itself does not move, and
// replay from a kept set, parallel unless final-only, reaches the final
// boundary.
func TestKeepBoundaries(t *testing.T) {
	for _, tc := range windowCases {
		t.Run(tc.name, func(t *testing.T) {
			record := func(keep int) *Result {
				bt := workloads.Get(tc.wl).Build(tc.p)
				opt := tc.opt
				opt.KeepBoundaries = keep
				res, err := Record(bt.Prog, bt.World, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			all := record(0)
			defer all.ReleaseCheckpoints()
			if len(all.Boundaries) != all.Stats.Epochs+1 {
				t.Fatalf("zero value kept %d boundaries of %d", len(all.Boundaries), all.Stats.Epochs+1)
			}
			prog := workloads.Get(tc.wl).Program(tc.p)
			for _, keep := range []int{0, 1, 2, 3, -1} {
				res := record(keep)
				want := replay.Thin(all.Boundaries, keep)
				if keep < 0 {
					want = all.Boundaries[len(all.Boundaries)-1:]
				}
				if d := diffBoundaries(res.Boundaries, want); d != "" {
					t.Errorf("keep %d kept %s", keep, d)
				}
				if !bytes.Equal(res.Raw, all.Raw) || res.Stats != all.Stats {
					t.Errorf("keep %d moved the recording", keep)
				}
				// Final-only keeps no epoch start to replay from: its replay
				// is sequential.
				opt := replay.Options{CPUs: 4}
				if keep >= 0 {
					opt.Boundaries = res.Boundaries
				}
				rep, err := replay.Run(context.Background(), prog, replay.FromRecording(res.Recording), opt)
				if err != nil || rep.FinalHash != res.Boundaries[len(res.Boundaries)-1].Hash {
					t.Errorf("keep %d: replay from %d boundaries: %v", keep, len(opt.Boundaries), err)
				}
				res.ReleaseCheckpoints()
			}
		})
	}
}

// diffBoundaries describes the first way got differs from want by index
// and hash, or returns "" when they match.
func diffBoundaries(got, want []*epoch.Boundary) string {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i].Index != want[i].Index || got[i].Hash != want[i].Hash {
			return fmt.Sprintf("%d boundaries, want %d; they differ at position %d", len(got), len(want), i)
		}
	}
	return ""
}
