package doubleplay_test

import (
	"bytes"
	"context"
	"testing"

	"doubleplay"
)

func TestWorkloadRegistry(t *testing.T) {
	names := doubleplay.Workloads()
	if len(names) < 10 {
		t.Fatalf("only %d workloads registered", len(names))
	}
	for _, want := range []string{"pbzip", "webserve", "fft", "racey"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("workload %s missing from %v", want, names)
		}
	}
	info := doubleplay.DescribeWorkload("racey")
	if info == nil || !info.Racy || info.Desc == "" {
		t.Fatalf("DescribeWorkload(racey) = %+v", info)
	}
	if doubleplay.DescribeWorkload("nope") != nil || doubleplay.BuildWorkload("nope", doubleplay.WorkloadParams{}) != nil {
		t.Fatal("unknown workload not rejected")
	}
}

func TestPublicRecordReplayRoundTrip(t *testing.T) {
	bt := doubleplay.BuildWorkload("kvdb", doubleplay.WorkloadParams{Workers: 2, Seed: 4})
	res, err := doubleplay.Record(bt.Prog, bt.World, doubleplay.RecordOptions{
		Workers: 2, SpareCPUs: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := doubleplay.SaveRecording(&buf, res.Recording); err != nil {
		t.Fatal(err)
	}
	rec, err := doubleplay.LoadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}

	seq, err := doubleplay.Replay(context.Background(), bt.Prog, rec, doubleplay.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.FinalHash != res.FinalHash {
		t.Fatal("round-tripped recording replays differently")
	}
	par, err := doubleplay.Replay(context.Background(), bt.Prog, res.Recording,
		doubleplay.ReplayOptions{Boundaries: res.Boundaries, CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if par.Epochs != seq.Epochs {
		t.Fatal("replay modes disagree on epoch count")
	}
}

func TestPublicNativeBaseline(t *testing.T) {
	bt := doubleplay.BuildWorkload("fft", doubleplay.WorkloadParams{Workers: 2, Seed: 4})
	nat, err := doubleplay.RunNative(bt.Prog, bt.World, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nat.Cycles <= 0 || len(nat.Faults) != 0 {
		t.Fatalf("native: %+v", nat)
	}
}

func TestPublicFindRaces(t *testing.T) {
	bt := doubleplay.BuildWorkload("webserve-racy", doubleplay.WorkloadParams{Workers: 3, Seed: 4})
	races, err := doubleplay.FindRaces(bt.Prog, bt.World)
	if err != nil {
		t.Fatal(err)
	}
	if len(races) != 1 {
		t.Fatalf("webserve-racy has exactly one racy cell; got %v", races)
	}

	clean := doubleplay.BuildWorkload("webserve", doubleplay.WorkloadParams{Workers: 3, Seed: 4})
	races, err = doubleplay.FindRaces(clean.Prog, clean.World)
	if err != nil {
		t.Fatal(err)
	}
	if len(races) != 0 {
		t.Fatalf("false positives on webserve: %v", races)
	}
}

func TestBuildOwnProgramThroughFacade(t *testing.T) {
	b := doubleplay.NewProgram("tiny")
	f := b.Func("main", 0)
	r := f.Reg()
	f.Movi(r, 21)
	f.Addi(r, r, 21)
	f.Halt(r)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := doubleplay.Record(prog, doubleplay.NewWorld(1), doubleplay.RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doubleplay.Replay(context.Background(), prog, res.Recording, doubleplay.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	last := res.Boundaries[len(res.Boundaries)-1]
	if got := last.CP.Threads[0].ExitVal; got != 42 {
		t.Fatalf("exit = %d, want 42", got)
	}
}
