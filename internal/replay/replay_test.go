package replay_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/replay"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// recordWorkload produces a recording of a builtin workload.
func recordWorkload(t *testing.T, name string, workers int) (*vm.Program, *core.Result) {
	t.Helper()
	return recordScaled(t, name, workers, 1)
}

// recordScaled is recordWorkload at a chosen problem scale.
func recordScaled(t *testing.T, name string, workers, scale int) (*vm.Program, *core.Result) {
	t.Helper()
	wl := workloads.Get(name)
	if wl == nil {
		t.Fatalf("no workload %s", name)
	}
	bt := wl.Build(workloads.Params{Workers: workers, Scale: scale, Seed: 17})
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers: workers, SpareCPUs: workers, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bt.Prog, res
}

// plan is one way of cutting a recording into concurrently replayed
// segments: the checkpoints handed to replay.Run.
type plan struct {
	name       string
	boundaries []*epoch.Boundary
}

// plans returns the three plan shapes over a recording's retained
// checkpoints: sequential, epoch-parallel, and sparse segments.
func plans(res *core.Result) []plan {
	return []plan{
		{"sequential", nil},
		{"epoch-parallel", res.Boundaries},
		{"sparse", replay.Thin(res.Boundaries, 2)},
	}
}

// sources returns rec behind both Source implementations.
func sources(t *testing.T, rec *dplog.Recording) map[string]replay.Source {
	t.Helper()
	rd, err := dplog.OpenReaderBytes(dplog.MarshalBytes(rec))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]replay.Source{"recording": replay.FromRecording(rec), "reader": replay.FromReader(rd)}
}

func TestSequentialVerifiesEveryBoundary(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	rep, err := replay.Sequential(prog, res.Recording, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != len(res.Recording.Epochs) {
		t.Fatalf("replayed %d of %d epochs", rep.Epochs, len(res.Recording.Epochs))
	}
	if rep.FinalHash != res.FinalHash {
		t.Fatal("final hash mismatch")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	prog, res := recordWorkload(t, "radix", 4)
	seq, err := replay.Sequential(prog, res.Recording, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := replay.FromRecording(res.Recording)
	par, err := replay.Run(context.Background(), prog, src, replay.Options{Boundaries: res.Boundaries, CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.FinalHash != seq.FinalHash {
		t.Fatal("parallel and sequential replay disagree")
	}
	if par.Cycles >= seq.Cycles {
		t.Fatalf("parallel replay not faster: %d vs %d", par.Cycles, seq.Cycles)
	}
}

func TestCorruptedScheduleRejected(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	rec := res.Recording
	// Find an epoch with a schedule and perturb one slice.
	for _, ep := range rec.Epochs {
		if len(ep.Schedule) > 1 {
			ep.Schedule[0].N += 2
			break
		}
	}
	if _, err := replay.Sequential(prog, rec, nil, nil); err == nil {
		t.Fatal("corrupted schedule replayed cleanly")
	}
}

func TestCorruptedSyscallResultRejected(t *testing.T) {
	// pfscan counts words equal to 42; toggling one input word across that
	// boundary changes the match count, so the replayed state must differ.
	prog, res := recordWorkload(t, "pfscan", 2)
	rec := res.Recording
	found := false
	for _, ep := range rec.Epochs {
		for i := range ep.Syscalls {
			if len(ep.Syscalls[i].Writes) > 0 && len(ep.Syscalls[i].Writes[0].Data) > 0 {
				d := ep.Syscalls[i].Writes[0].Data
				if d[0] == 42 {
					d[0] = 0
				} else {
					d[0] = 42
				}
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no syscall input data recorded")
	}
	if _, err := replay.Sequential(prog, rec, nil, nil); err == nil {
		t.Fatal("corrupted input data replayed cleanly")
	}
}

// TestCorruptedFinalHashRejected: a recording whose header FinalHash does
// not match its last epoch is rejected under every plan and from both
// sources — Result.FinalHash is never a header value nobody compared to
// the replayed state.
func TestCorruptedFinalHashRejected(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	res.Recording.FinalHash ^= 1
	for srcName, src := range sources(t, res.Recording) {
		for _, p := range plans(res) {
			_, err := replay.Run(context.Background(), prog, src, replay.Options{Boundaries: p.boundaries, CPUs: 2})
			if err == nil || !strings.Contains(err.Error(), "final hash") {
				t.Errorf("%s/%s: err = %v", srcName, p.name, err)
			}
		}
	}
}

// TestCanceledContextStopsEveryPlan: a context canceled before the replay
// starts ends every plan with an error wrapping context.Canceled (checked
// before any checkpoint is restored).
func TestCanceledContextStopsEveryPlan(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range plans(res) {
		_, err := replay.Run(ctx, prog, replay.FromRecording(res.Recording), replay.Options{Boundaries: p.boundaries, CPUs: 2})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", p.name, err)
		}
	}
}

// TestBadBoundarySetsRejected covers what is illegal in a boundary set;
// any subset of a recording's boundaries that keeps epoch 0 is a plan.
func TestBadBoundarySetsRejected(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	src := replay.FromRecording(res.Recording)
	bs := res.Boundaries
	if len(bs) < 3 {
		t.Skip("workload produced fewer than 2 epochs")
	}
	// One boundary is a legal plan: a single segment from epoch 0.
	if _, err := replay.Run(context.Background(), prog, src, replay.Options{Boundaries: bs[:1], CPUs: 2}); err != nil {
		t.Fatalf("one-boundary plan: %v", err)
	}
	outOfRange := *bs[1]
	outOfRange.Index = len(res.Recording.Epochs) + 1
	wrongState := *bs[1]
	wrongState.CP, wrongState.Hash = bs[2].CP, bs[2].Hash
	for name, bad := range map[string][]*epoch.Boundary{
		"not starting at epoch 0": bs[1:],
		"out-of-range index":      {bs[0], &outOfRange},
		"start-hash mismatch":     {bs[0], &wrongState},
	} {
		if _, err := replay.Run(context.Background(), prog, src, replay.Options{Boundaries: bad, CPUs: 2}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReplayRoundTripsThroughCodec(t *testing.T) {
	prog, res := recordWorkload(t, "webserve", 2)
	data := dplog.MarshalBytes(res.Recording)
	rec, err := dplog.UnmarshalBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Sequential(prog, rec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalHash != res.FinalHash {
		t.Fatal("decoded recording replays differently")
	}
}

func TestWrongProgramRejected(t *testing.T) {
	_, res := recordWorkload(t, "kvdb", 2)
	other := workloads.Get("fft").Build(workloads.Params{Workers: 2, Seed: 17})
	if _, err := replay.Sequential(other.Prog, res.Recording, nil, nil); err == nil {
		t.Fatal("recording replayed against the wrong program")
	}
	_ = simos.NewWorld // keep import for symmetry with other tests
}
