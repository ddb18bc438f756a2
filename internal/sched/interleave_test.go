package sched_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// interleaveStep is the recorder's default epoch length: the chunked
// driver below stops the scheduler every this many cycles, as core.Record
// does.
const interleaveStep = 25_000

// runInterleave executes one guest under a Parallel scheduler and returns
// its fingerprint line. chunked drives the scheduler the way the recorder
// does — RunUntil(next) one epoch at a time with a whole-machine AddCost
// between calls — so anything the scheduler carries from one call to the
// next (its jitter stream, which CPU it believes is first) is exercised
// across the boundary.
func runInterleave(t *testing.T, guest string, cpus int, seed int64, chunked bool) string {
	t.Helper()
	wl := workloads.Get(guest)
	if wl == nil {
		t.Fatalf("no workload %s", guest)
	}
	bt := wl.Build(workloads.Params{Workers: 3, Seed: seed})
	m := vm.NewMachine(bt.Prog, nil, nil)
	live := epoch.NewLiveLog(nil, 0)
	live.Attach(m, bt.World)
	p := sched.NewParallel(m, cpus, seed)
	p.Signals = live.Signals()
	mode := "run"
	if chunked {
		mode = "chunked"
		for k := int64(1); !m.Done(); k++ {
			if err := p.RunUntil(p.Now() + interleaveStep); err != nil {
				t.Fatalf("%s cpus=%d seed=%d: %v", guest, cpus, seed, err)
			}
			p.AddCost(40 + (3*k)%7)
		}
	} else if err := p.Run(); err != nil {
		t.Fatalf("%s cpus=%d seed=%d: %v", guest, cpus, seed, err)
	}
	return fmt.Sprintf("%s cpus=%d seed=%d %s wall=%d retired=%d hash=%016x\n",
		guest, cpus, seed, mode, p.WallTime(), p.Retired(), m.StateHash())
}

// TestParallelInterleavingGolden pins the thread-parallel scheduler's
// interleaving where it lives: completion time, instructions retired and
// final state hash of a compute kernel, a racy program (whose final state
// depends on the exact interleaving), a syscall-polling server and a
// signal-driven guest, over several CPU counts and seeds. The table was
// generated before RunUntil was restructured; any change to which CPU
// steps next, to the order jitter is drawn in, or to blocked-syscall
// polling shows here as a diff, two layers below the recorder's own
// golden cycle counts.
func TestParallelInterleavingGolden(t *testing.T) {
	var got bytes.Buffer
	for _, guest := range []string{"fft", "racey", "kvdb", "sigping"} {
		for _, cpus := range []int{1, 2, 3, 5} {
			for _, seed := range []int64{11, 29} {
				for _, chunked := range []bool{false, true} {
					got.WriteString(runInterleave(t, guest, cpus, seed, chunked))
				}
			}
		}
	}
	path := filepath.Join("testdata", "parallel_interleave.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gl {
		if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("thread-parallel interleaving changed, first at line %d:\n got  %s\n want %s",
				i+1, gl[i], bytes.Join(wl[i:min(i+1, len(wl))], nil))
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("interleaving table has %d lines, golden %d", len(gl), len(wl))
	}
}
