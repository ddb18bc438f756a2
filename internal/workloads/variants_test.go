package workloads

import (
	"bytes"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
)

// TestRegistryMetadata: every row of the table is complete, Names and Get
// read the same rows in the same order, and the paper's mix is present.
func TestRegistryMetadata(t *testing.T) {
	all, names := All(), Names()
	if len(all) != 13 || len(names) != len(all) {
		t.Fatalf("suite has %d workloads and %d names, want 13", len(all), len(names))
	}
	kinds := map[string]int{}
	for i, w := range all {
		if w.Desc == "" || w.Kind == "" || w.build == nil {
			t.Fatalf("incomplete workload %q", w.Name)
		}
		kinds[w.Kind]++
		if names[i] != w.Name {
			t.Fatalf("Names()[%d] = %q, All()[%d] is %q", i, names[i], i, w.Name)
		}
		if Get(w.Name) != w {
			t.Fatalf("Get(%q) is not All()'s row", w.Name)
		}
	}
	if kinds["client"] < 3 || kinds["server"] < 2 || kinds["scientific"] < 5 {
		t.Fatalf("paper mix missing: %v", kinds)
	}
	if Get("nope") != nil {
		t.Fatal("Get of an unknown name is not nil")
	}
}

// TestOddWorkerCounts exercises worker counts the evaluation doesn't use;
// work distribution and self-checks must hold for any count.
func TestOddWorkerCounts(t *testing.T) {
	for _, name := range []string{"pbzip", "fft", "kvdb", "radix", "water"} {
		for _, workers := range []int{1, 3, 6} {
			name, workers := name, workers
			t.Run(name+"/w"+string(rune('0'+workers)), func(t *testing.T) {
				t.Parallel()
				bt := Get(name).Build(Params{Workers: workers, Seed: 31})
				res, err := core.Record(bt.Prog, bt.World, core.Options{
					Workers: workers, SpareCPUs: workers, Seed: 31,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.GuestFaults != 0 || res.Stats.Divergences != 0 {
					t.Fatalf("faults=%d div=%d", res.Stats.GuestFaults, res.Stats.Divergences)
				}
				last := res.Boundaries[len(res.Boundaries)-1]
				if err := bt.CheckOK(last.CP.MemSnap.Peek); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestScaleTwo exercises the size multiplier on a kernel and a server.
func TestScaleTwo(t *testing.T) {
	for _, name := range []string{"ocean", "kvdb"} {
		small := Get(name).Build(Params{Workers: 2, Scale: 1, Seed: 31})
		big := Get(name).Build(Params{Workers: 2, Scale: 2, Seed: 31})
		ns, err := core.RunNative(small.Prog, small.World, 2, 31, nil)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := core.RunNative(big.Prog, big.World, 2, 31, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nb.Cycles <= ns.Cycles {
			t.Fatalf("%s: scale 2 not larger: %d vs %d", name, nb.Cycles, ns.Cycles)
		}
	}
}

// TestRecordingBitwiseDeterministic: the same workload, seed, and options
// must produce a byte-identical recording across runs — the property that
// makes recordings diffable artifacts.
func TestRecordingBitwiseDeterministic(t *testing.T) {
	recordBytes := func() []byte {
		bt := Get("kvdb").Build(Params{Workers: 4, Seed: 77})
		res, err := core.Record(bt.Prog, bt.World, core.Options{
			Workers: 4, SpareCPUs: 4, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dplog.MarshalBytes(res.Recording)
	}
	a, b := recordBytes(), recordBytes()
	if !bytes.Equal(a, b) {
		t.Fatal("recording is not bitwise deterministic")
	}
}

// TestDifferentSeedsDifferentInputs: the input generators must actually
// respond to the seed.
func TestDifferentSeedsDifferentInputs(t *testing.T) {
	a := Get("pfscan").Build(Params{Workers: 2, Seed: 1})
	b := Get("pfscan").Build(Params{Workers: 2, Seed: 2})
	ra, err := core.RunNative(a.Prog, a.World, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.RunNative(b.Prog, b.World, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.FinalHash == rb.FinalHash {
		t.Fatal("different seeds produced identical final states")
	}
}

// TestWorkloadsAreFreshPerBuild: two builds of the same workload must not
// share mutable state (worlds or data segments).
func TestWorkloadsAreFreshPerBuild(t *testing.T) {
	w1 := Get("webserve").Build(Params{Workers: 2, Seed: 9})
	w2 := Get("webserve").Build(Params{Workers: 2, Seed: 9})
	if w1.World == w2.World {
		t.Fatal("worlds shared across builds")
	}
	// Consume w1 fully, then w2 must still run identically.
	r1, err := core.RunNative(w1.Prog, w1.World, 2, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.RunNative(w2.Prog, w2.World, 2, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalHash != r2.FinalHash {
		t.Fatal("same-seed builds diverge")
	}
}
