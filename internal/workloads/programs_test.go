package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"doubleplay/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// forGrid calls f for every workload over the grid of worker counts,
// scales and seeds that testdata/programs.golden pins.
func forGrid(f func(wl *Workload, p Params)) {
	for _, wl := range All() {
		for _, workers := range []int{1, 2, 3, 4, 6} {
			for _, scale := range []int{1, 2} {
				for _, seed := range []int64{1, 11} {
					f(wl, Params{Workers: workers, Scale: scale, Seed: seed})
				}
			}
		}
	}
}

// TestProgramsUnchanged pins every guest build byte for byte: for each
// workload over a grid of worker counts, scales and seeds it hashes the
// program (code, function table, data segment), records the self-check
// cell and the racy cells, and runs the build natively so the world it
// ships is pinned too. A refactor of the builders must leave every line of
// testdata/programs.golden as it is.
func TestProgramsUnchanged(t *testing.T) {
	var got bytes.Buffer
	forGrid(func(wl *Workload, p Params) {
		bt := wl.Build(p)
		prog, err := json.Marshal(bt.Prog)
		if err != nil {
			t.Fatal(err)
		}
		nat, err := core.RunNative(bt.Prog, bt.World, p.Workers, p.Seed, nil)
		if err != nil {
			t.Fatalf("%s w=%d scale=%d seed=%d: %v", wl.Name, p.Workers, p.Scale, p.Seed, err)
		}
		fmt.Fprintf(&got, "%s w=%d scale=%d seed=%d prog=%x ok=%d racy=%v cycles=%d final=%016x out=%016x\n",
			wl.Name, p.Workers, p.Scale, p.Seed, sha256.Sum256(prog), bt.OK, bt.RacyAddrs,
			nat.Cycles, nat.FinalHash, nat.OutputHash)
	})
	path := filepath.Join("testdata", "programs.golden")
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
		t.Fatalf("%v (run `go test ./internal/workloads -run TestProgramsUnchanged -update` to create it)", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gl {
		if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("guest build changed, first at line %d:\n got  %s\n want %s",
				i+1, gl[i], bytes.Join(wl[i:min(i+1, len(wl))], nil))
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("build table has %d lines, golden %d", len(gl), len(wl))
	}
}

// TestProgramMatchesBuild holds the program-only build to Build's program,
// byte for byte over the golden's grid: a replay that builds no world runs
// the code and data that were recorded.
func TestProgramMatchesBuild(t *testing.T) {
	forGrid(func(wl *Workload, p Params) {
		want, err := json.Marshal(wl.Build(p).Prog)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(wl.Program(p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s w=%d scale=%d seed=%d: Program differs from Build's program", wl.Name, p.Workers, p.Scale, p.Seed)
		}
	})
}

// TestProgramKeepsNoWorld bounds what a program-only build allocates for
// the two guests whose worlds are large: pfscan's file set and aget's
// fetch source (each over 400 KB) must not be built only to be dropped.
func TestProgramKeepsNoWorld(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	const limit = 64 << 10
	for _, name := range []string{"pfscan", "aget"} {
		wl, p := Get(name), Params{Workers: 4, Scale: 1, Seed: 17}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 4
		for i := 0; i < runs; i++ {
			wl.Program(p)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= limit {
			t.Errorf("%s: a program-only build allocates %d bytes, want under %d", name, per, limit)
		}
	}
}
