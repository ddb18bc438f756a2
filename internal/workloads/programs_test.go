package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"doubleplay/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// TestProgramsUnchanged pins every guest build byte for byte: for each
// workload over a grid of worker counts, scales and seeds it hashes the
// program (code, function table, data segment), records the self-check
// cell and the racy cells, and runs the build natively so the world it
// ships is pinned too. A refactor of the builders must leave every line of
// testdata/programs.golden as it is.
func TestProgramsUnchanged(t *testing.T) {
	var got bytes.Buffer
	for _, wl := range All() {
		for _, workers := range []int{1, 2, 3, 4, 6} {
			for _, scale := range []int{1, 2} {
				for _, seed := range []int64{1, 11} {
					bt := wl.Build(Params{Workers: workers, Scale: scale, Seed: seed})
					prog, err := json.Marshal(bt.Prog)
					if err != nil {
						t.Fatal(err)
					}
					nat, err := core.RunNative(bt.Prog, bt.World, workers, seed, nil)
					if err != nil {
						t.Fatalf("%s w=%d scale=%d seed=%d: %v", wl.Name, workers, scale, seed, err)
					}
					fmt.Fprintf(&got, "%s w=%d scale=%d seed=%d prog=%x ok=%d racy=%v cycles=%d final=%016x out=%016x\n",
						wl.Name, workers, scale, seed, sha256.Sum256(prog), bt.OK, bt.RacyAddrs,
						nat.Cycles, nat.FinalHash, nat.OutputHash)
				}
			}
		}
	}
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
