package replay_test

import (
	"bytes"
	"context"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// recordWorkloadProfiled is recordWorkload with guest profiling turned on;
// it returns the profile the recorder gathered alongside the recording.
func recordWorkloadProfiled(t *testing.T, name string, workers int) (*vm.Program, *core.Result, *profile.Profile) {
	t.Helper()
	wl := workloads.Get(name)
	if wl == nil {
		t.Fatalf("no workload %s", name)
	}
	bt := wl.Build(workloads.Params{Workers: workers, Seed: 17})
	prof := profile.NewProfile("")
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers: workers, SpareCPUs: workers, Seed: 17, Profile: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bt.Prog, res, prof
}

// replayProfiled replays src from the given checkpoints on 4 cores,
// gathering the guest profile into p.
func replayProfiled(prog *vm.Program, src replay.Source, bs []*epoch.Boundary, p *profile.Profile) (*replay.Result, error) {
	return replay.Run(context.Background(), prog, src, replay.Options{Boundaries: bs, CPUs: 4, Profile: p})
}

// TestGuestProfileRecordReplayIdentity is the headline determinism claim:
// for every builtin workload, sequential replay of the recording regenerates
// the record-time guest profile byte for byte.
func TestGuestProfileRecordReplayIdentity(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, name := range workloads.Names() {
			name, workers := name, workers
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				prog, res, recProf := recordWorkloadProfiled(t, name, workers)
				if recProf.NumSamples() == 0 {
					t.Fatal("record profile is empty")
				}
				repProf := profile.NewProfile("")
				if _, err := replayProfiled(prog, replay.FromRecording(res.Recording), nil, repProf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(recProf.MarshalPprof(), repProf.MarshalPprof()) {
					t.Fatalf("%s/%dw: replay profile differs from record profile", name, workers)
				}
			})
		}
	}
}

// TestGuestProfileStrategyIndependence checks that every replay strategy —
// sequential, epoch-parallel, segment-parallel over thinned checkpoints, and
// the reader-backed variants over a marshalled log — produces the same bytes.
// Parallel strategies merge per-epoch profiles in nondeterministic completion
// order, so this also exercises the canonical (order-free) pprof encoding.
func TestGuestProfileStrategyIndependence(t *testing.T) {
	prog, res, recProf := recordWorkloadProfiled(t, "radix", 4)
	want := recProf.MarshalPprof()

	rd, err := dplog.OpenReaderBytes(dplog.MarshalBytes(res.Recording))
	if err != nil {
		t.Fatal(err)
	}
	rec, viaReader := replay.FromRecording(res.Recording), replay.FromReader(rd)
	runs := []struct {
		name       string
		src        replay.Source
		boundaries []*epoch.Boundary
	}{
		{"sequential", rec, nil},
		{"parallel", rec, res.Boundaries},
		{"sparse", rec, replay.Thin(res.Boundaries, 2)},
		{"reader-sequential", viaReader, nil},
		{"reader-sparse", viaReader, replay.Thin(res.Boundaries, 2)},
	}
	for _, r := range runs {
		p := profile.NewProfile("")
		if _, err := replayProfiled(prog, r.src, r.boundaries, p); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !bytes.Equal(want, p.MarshalPprof()) {
			t.Fatalf("%s: profile differs from record profile", r.name)
		}
	}
}

// TestGuestProfileCertifiedRecording: under the certified verify-skip policy
// the profile is gathered from the thread-parallel execution itself, which is
// the execution the log describes — replay must still regenerate it exactly.
func TestGuestProfileCertifiedRecording(t *testing.T) {
	for _, name := range []string{"sigping", "pfscan"} {
		wl := workloads.Get(name)
		bt := wl.Build(workloads.Params{Workers: 2, Seed: 17})
		recProf := profile.NewProfile("")
		res, err := core.Record(bt.Prog, bt.World, core.Options{
			Workers: 2, SpareCPUs: 2, Seed: 17,
			VerifyPolicy: core.VerifyCertified, Profile: recProf,
		})
		if err != nil {
			t.Fatal(err)
		}
		repProf := profile.NewProfile("")
		if _, err := replayProfiled(bt.Prog, replay.FromRecording(res.Recording), nil, repProf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recProf.MarshalPprof(), repProf.MarshalPprof()) {
			t.Fatalf("%s: certified-recording profile differs from replay profile", name)
		}
	}
}

// TestGuestProfileAccountsAllCycles: the profile's cycle total equals the
// cycles the replay itself retired, so nothing is dropped or double-counted.
func TestGuestProfileTotalsMatchReplay(t *testing.T) {
	prog, res, recProf := recordWorkloadProfiled(t, "fft", 2)
	repProf := profile.NewProfile("")
	if _, err := replayProfiled(prog, replay.FromRecording(res.Recording), nil, repProf); err != nil {
		t.Fatal(err)
	}
	if recProf.TotalCycles() != repProf.TotalCycles() {
		t.Fatalf("cycle totals differ: record %d, replay %d", recProf.TotalCycles(), repProf.TotalCycles())
	}
	if recProf.TotalInstrs() != repProf.TotalInstrs() {
		t.Fatalf("instruction totals differ: record %d, replay %d", recProf.TotalInstrs(), repProf.TotalInstrs())
	}
	if recProf.TotalCycles() <= 0 || recProf.TotalInstrs() <= 0 {
		t.Fatalf("empty totals: %d cycles, %d instrs", recProf.TotalCycles(), recProf.TotalInstrs())
	}
}
