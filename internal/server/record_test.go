package server_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/epoch"
	"doubleplay/internal/replay"
	"doubleplay/internal/server"
)

// TestRecordSpecFields records through server.Record, the one place a
// Spec becomes core.Options, with and without one recorder field set per
// row, and holds each field to an effect on the recording. A field Record
// forgot to map would record the base spec twice.
func TestRecordSpecFields(t *testing.T) {
	for _, tc := range []struct {
		name  string
		base  server.Spec
		set   func(*server.Spec)
		check func(got, base *core.Result) string
	}{
		{"detect_races reports racey's races",
			server.Spec{Workload: "racey", Workers: 2},
			func(sp *server.Spec) { sp.DetectRaces = true },
			func(got, base *core.Result) string {
				if len(got.Races) == 0 || base.Races != nil {
					return fmt.Sprintf("%d races detected, %d without the detector", len(got.Races), len(base.Races))
				}
				return ""
			}},
		{"growth 2 records fewer epochs than growth 1",
			server.Spec{Workload: "pbzip", Workers: 2, Growth: 1},
			func(sp *server.Spec) { sp.Growth = 2 },
			func(got, base *core.Result) string {
				if got.Stats.Epochs >= base.Stats.Epochs {
					return fmt.Sprintf("%d epochs at growth 2, %d at growth 1", got.Stats.Epochs, base.Stats.Epochs)
				}
				return ""
			}},
		{"epoch_cycles shortens every epoch",
			server.Spec{Workload: "pbzip", Workers: 2},
			func(sp *server.Spec) { sp.EpochCycles = core.DefaultEpochCycles / 4 },
			func(got, base *core.Result) string {
				if got.Stats.Epochs <= base.Stats.Epochs {
					return fmt.Sprintf("%d epochs at a quarter of the default length, %d at the default", got.Stats.Epochs, base.Stats.Epochs)
				}
				return ""
			}},
		{"verify_policy certified skips sigping's verification",
			server.Spec{Workload: "sigping", Workers: 2},
			func(sp *server.Spec) { sp.VerifyPolicy = "certified" },
			func(got, base *core.Result) string {
				if s := got.Stats; s.CertStatus != "race-free" || s.VerifySkipped == 0 || s.VerifySkipped != s.Epochs || base.Stats.VerifySkipped != 0 {
					return fmt.Sprintf("certificate %q, %d of %d epochs skipped; %d skipped under always",
						s.CertStatus, s.VerifySkipped, s.Epochs, base.Stats.VerifySkipped)
				}
				return ""
			}},
		{"max_spares bounds the adaptive controller",
			server.Spec{Workload: "pbzip", Workers: 4, Spares: 1, Adaptive: true, MinSpares: 1, MaxSpares: 1},
			func(sp *server.Spec) { sp.MaxSpares = 4 },
			func(got, base *core.Result) string {
				if g, b := got.Stats, base.Stats; g.SpareGrows == 0 || g.ActiveSpares < 2 || g.ActiveSpares > 4 || b.SpareGrows != 0 || b.ActiveSpares != 1 {
					return fmt.Sprintf("max 4: %d grows, %d active; max 1: %d grows, %d active",
						g.SpareGrows, g.ActiveSpares, b.SpareGrows, b.ActiveSpares)
				}
				return ""
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.base
			tc.set(&sp)
			var res [2]*core.Result
			for i, sp := range []server.Spec{sp, tc.base} {
				r, _, err := server.Record(context.Background(), sp, nil, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				r.ReleaseCheckpoints()
				res[i] = r
			}
			if msg := tc.check(res[0], res[1]); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// TestJobsKeepWhatTheyReplay records through the daemon's job path: a
// record job's result keeps only the final boundary, and a verify job's
// exactly the boundaries its plan replays from, by index and hash.
func TestJobsKeepWhatTheyReplay(t *testing.T) {
	s, err := server.New(server.Config{DataDir: t.TempDir(), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := server.Spec{Workload: "pbzip", Workers: 2, EpochCycles: core.DefaultEpochCycles / 4}
	full, _, err := server.Record(context.Background(), base, []int{1}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer full.ReleaseCheckpoints()
	all := full.Boundaries
	if len(all) != full.Stats.Epochs+1 || len(all) < 8 {
		t.Fatalf("stride 1 kept %d boundaries of %d; want all, and at least 8", len(all), full.Stats.Epochs+1)
	}
	for _, tc := range []struct {
		kind, mode string
		stride     int
		want       []*epoch.Boundary
	}{
		{"record", "", 0, all[len(all)-1:]},
		{"verify", "sequential", 0, all[len(all)-1:]},
		{"verify", "parallel", 0, all},
		{"verify", "sparse", 3, replay.Thin(all, 3)},
	} {
		sp := base
		sp.Kind, sp.Mode, sp.Stride = server.Kind(tc.kind), tc.mode, tc.stride
		res, err := s.JobRecording(context.Background(), "job-"+tc.kind+tc.mode, sp)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffBoundaries(res.Boundaries, tc.want); d != "" {
			t.Errorf("%s job, mode %q: kept %s", tc.kind, tc.mode, d)
		}
		res.ReleaseCheckpoints()
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

// TestVerifyRefusesThinnerKeep holds Verify to its precondition: a result
// that kept fewer boundaries than a stride replays from is refused before
// any replay, and one that kept a finer set than the stride needs passes.
func TestVerifyRefusesThinnerKeep(t *testing.T) {
	sp := server.Spec{Workload: "pbzip", Workers: 2, EpochCycles: core.DefaultEpochCycles / 4}
	for _, tc := range []struct {
		kept, verify []int
		wantErr      string
	}{
		{nil, []int{1}, "stride 1 replay: the recording kept boundary"},
		{[]int{3}, []int{1}, "stride 1 replay: the recording kept boundary 3 where 1 belongs"},
		{[]int{3}, []int{2}, "stride 2 replay: the recording kept boundary"},
		{[]int{3}, []int{6}, ""},
		{[]int{1}, []int{2, 5}, ""},
	} {
		res, bt, err := server.Record(context.Background(), sp, tc.kept, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := server.Verify(context.Background(), bt, res, 2, tc.verify, nil, nil)
		res.ReleaseCheckpoints()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("kept by %v, verified by %v: %v", tc.kept, tc.verify, err)
		case tc.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.wantErr)):
			t.Errorf("kept by %v, verified by %v: error %v, want one starting %q", tc.kept, tc.verify, err, tc.wantErr)
		case tc.wantErr != "" && len(reps) != 0:
			t.Errorf("kept by %v, verified by %v: %d replays ran before the refusal", tc.kept, tc.verify, len(reps))
		}
	}
}
