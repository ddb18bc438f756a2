package replay_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
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
// segments: the checkpoints handed to replay.Run, or a stride with none.
type plan struct {
	name       string
	boundaries []*epoch.Boundary
	stride     int
}

// options is the replay.Options that run p on cpus cores.
func (p plan) options(cpus int) replay.Options {
	return replay.Options{Boundaries: p.boundaries, Stride: p.stride, CPUs: cpus}
}

// plans returns the three plan shapes over a recording's retained
// checkpoints — sequential, epoch-parallel, and sparse segments — and the
// sparse plan a stored log with no checkpoints is replayed by.
func plans(res *core.Result) []plan {
	return []plan{
		{"sequential", nil, 0},
		{"epoch-parallel", res.Boundaries, 0},
		{"sparse", replay.Thin(res.Boundaries, 2), 0},
		{"stored-sparse", nil, 4},
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
			_, err := replay.Run(context.Background(), prog, src, p.options(2))
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
		_, err := replay.Run(ctx, prog, replay.FromRecording(res.Recording), p.options(2))
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
	// A stride cuts a plan only where no boundaries do.
	if _, err := replay.Run(context.Background(), prog, src, replay.Options{Boundaries: bs, Stride: 2, CPUs: 2}); err == nil {
		t.Errorf("boundaries with a stride: accepted")
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

// replayTraced runs one plan over src with a trace and returns the result
// with the trace bytes and, when opt gathers one, the guest profile's.
func replayTraced(t *testing.T, prog *vm.Program, src replay.Source, opt replay.Options) (*replay.Result, []byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewStreamSink(&buf, 0)
	opt.Trace = sink
	rep, err := replay.Run(context.Background(), prog, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var prof []byte
	if opt.Profile != nil {
		prof = opt.Profile.MarshalPprof()
	}
	return rep, buf.Bytes(), prof
}

// TestStridePlanMatchesCheckpointPlan: over a stored log, a plan priced by
// Stride from one pass gives the Result, trace and guest profile of
// replaying it from rebuilt checkpoints, Thin(CheckpointsFrom(src),
// Stride), for every workload, stride and core count.
func TestStridePlanMatchesCheckpointPlan(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, res := recordWorkload(t, name, 2)
			rd, err := dplog.OpenReaderBytes(dplog.MarshalBytes(res.Recording))
			if err != nil {
				t.Fatal(err)
			}
			src := replay.FromReader(rd)
			all, err := replay.CheckpointsFrom(context.Background(), prog, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, stride := range []int{1, 2, 4, src.NumEpochs() + 1} {
				for _, cpus := range []int{1, 2, 4} {
					// The profile does not depend on the core count, and the
					// profiler's hook keeps epochs out of the slice loop: one
					// core profiles, the others replay at batch speed.
					var wantP, gotP *profile.Profile
					if cpus == 1 {
						wantP, gotP = profile.NewProfile(""), profile.NewProfile("")
					}
					want, wantTr, wantProf := replayTraced(t, prog, src, replay.Options{Boundaries: replay.Thin(all, stride), CPUs: cpus, Profile: wantP})
					got, gotTr, gotProf := replayTraced(t, prog, src, replay.Options{Stride: stride, CPUs: cpus, Profile: gotP})
					if *got != *want {
						t.Errorf("stride %d, %d cpus: result %+v, from checkpoints %+v", stride, cpus, *got, *want)
					}
					if !bytes.Equal(gotTr, wantTr) {
						t.Errorf("stride %d, %d cpus: trace differs from the checkpoint plan's", stride, cpus)
					}
					if !bytes.Equal(gotProf, wantProf) {
						t.Errorf("stride %d, %d cpus: guest profile differs from the checkpoint plan's", stride, cpus)
					}
				}
			}
		})
	}
}
