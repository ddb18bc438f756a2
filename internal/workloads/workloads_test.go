package workloads

import (
	"cmp"
	"context"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
)

// TestBuildAtMaxWorkers builds every workload at the largest worker count
// the CLI and the daemon accept; a builder that runs out of guest
// registers panics.
func TestBuildAtMaxWorkers(t *testing.T) {
	for _, wl := range All() {
		if bt := wl.Build(Params{Workers: MaxWorkers, Seed: 3}); bt.Prog == nil {
			t.Errorf("%s: no program", wl.Name)
		}
	}
}

// TestNativeSelfChecks runs every workload natively and asserts the guest's
// own verification passed.
func TestNativeSelfChecks(t *testing.T) {
	for _, wl := range All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			bt := wl.Build(Params{Workers: 2, Seed: 3})
			nat, err := core.RunNative(bt.Prog, bt.World, 3, 3, nil)
			if err != nil {
				t.Fatalf("native run: %v", err)
			}
			if len(nat.Faults) != 0 {
				t.Fatalf("guest faults: %v", nat.Faults)
			}
			// Native final state carries the OK verdict in memory; check it
			// through a record-free machine run instead of a checkpoint.
			// RunNative does not expose memory, so re-run through Record.
			res, err := core.Record(bt.Prog, wl.Build(Params{Workers: 2, Seed: 3}).World, core.Options{
				Workers: 2, SpareCPUs: 4, Seed: 3,
			})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			last := res.Boundaries[len(res.Boundaries)-1]
			if err := bt.CheckOK(last.CP.MemSnap.Peek); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecordReplayFidelity records every workload at both paper thread
// counts and checks: race-free workloads never diverge, self-checks hold,
// and both sequential and epoch-parallel replay reproduce the recording.
func TestRecordReplayFidelity(t *testing.T) {
	for _, wl := range All() {
		for _, workers := range []int{2, 4} {
			wl, workers := wl, workers
			t.Run(wl.Name+sizeSuffix(workers), func(t *testing.T) {
				t.Parallel()
				bt := wl.Build(Params{Workers: workers, Seed: 11})
				res, err := core.Record(bt.Prog, bt.World, core.Options{
					Workers: workers, SpareCPUs: 2 * workers, Seed: 11,
				})
				if err != nil {
					t.Fatalf("record: %v", err)
				}
				if res.Stats.GuestFaults != 0 {
					t.Fatalf("guest faults during record")
				}
				if !wl.Racy && res.Stats.Divergences != 0 {
					t.Fatalf("race-free workload diverged %d times", res.Stats.Divergences)
				}
				last := res.Boundaries[len(res.Boundaries)-1]
				if err := bt.CheckOK(last.CP.MemSnap.Peek); err != nil {
					t.Fatal(err)
				}

				seq, err := replay.Sequential(bt.Prog, res.Recording, nil, nil)
				if err != nil {
					t.Fatalf("sequential replay: %v", err)
				}
				if seq.FinalHash != res.FinalHash {
					t.Fatal("sequential replay final hash mismatch")
				}
				par := replay.Options{Boundaries: res.Boundaries, CPUs: workers}
				if _, err := replay.Run(context.Background(), bt.Prog, replay.FromRecording(res.Recording), par); err != nil {
					t.Fatalf("parallel replay: %v", err)
				}
			})
		}
	}
}

func sizeSuffix(workers int) string {
	if workers == 2 {
		return "/w2"
	}
	return "/w4"
}

// TestForLog holds the one rule every replay entry resolves a log's
// workload by: the header names the program, workers and seed, a caller's
// non-zero value may only agree, a field the header leaves zero is the
// caller's, and the scale is always the caller's.
func TestForLog(t *testing.T) {
	h := dplog.Header{Program: "pbzip", Workers: 4, Seed: 11}
	for _, tc := range []struct {
		name string
		h    dplog.Header
		wl   string
		p    Params
		want Params
		err  string
	}{
		{"the header alone", h, "", Params{}, Params{Workers: 4, Scale: 1, Seed: 11}, ""},
		{"agreeing values", h, "pbzip", Params{Workers: 4, Seed: 11}, Params{Workers: 4, Scale: 1, Seed: 11}, ""},
		{"the scale is the caller's", h, "", Params{Scale: 3}, Params{Workers: 4, Scale: 3, Seed: 11}, ""},
		{"a header without seed", dplog.Header{Program: "pbzip", Workers: 4}, "", Params{Seed: 5}, Params{Workers: 4, Scale: 1, Seed: 5}, ""},
		{"a header without program", dplog.Header{Workers: 4}, "kvdb", Params{}, Params{Workers: 4, Scale: 1, Seed: 1}, ""},
		{"another workload", h, "kvdb", Params{}, Params{}, "workload kvdb disagrees with the log's pbzip"},
		{"other workers", h, "", Params{Workers: 3}, Params{}, "workers 3 disagrees with the log's 4"},
		{"another seed", h, "", Params{Seed: 12}, Params{}, "seed 12 disagrees with the log's 11"},
		{"no program anywhere", dplog.Header{Workers: 4}, "", Params{}, Params{}, "the log names no workload"},
		{"an unknown program", dplog.Header{Program: "nosuch"}, "", Params{}, Params{}, `unknown workload "nosuch"`},
	} {
		wl, p, err := ForLog(tc.h, tc.wl, tc.p)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case p != tc.want || wl.Name != cmp.Or(tc.h.Program, tc.wl):
			t.Errorf("%s: %s %+v, want %+v", tc.name, wl.Name, p, tc.want)
		}
	}
}
