package core

import (
	"testing"

	"doubleplay/internal/epoch"
	"doubleplay/internal/simos"
	"doubleplay/internal/workloads"
)

// recordCountingWorlds is Record, also returning how many distinct worlds
// the recorder's boundaries hold after each produce and after each commit.
func recordCountingWorlds(t *testing.T, name string, p workloads.Params, opt Options) (*Result, []int) {
	t.Helper()
	bt := workloads.Get(name).Build(p)
	r, vs := newRecorder(bt.Prog, bt.World, opt.withDefaults())
	var counts []int
	count := func(extra ...*epoch.Boundary) {
		seen := map[*simos.World]bool{}
		for _, b := range append(append(extra, r.last), r.boundaries...) {
			if b.World != nil {
				seen[b.World] = true
			}
		}
		counts = append(counts, len(seen))
	}
	for !r.m.Done() {
		p, err := r.produce()
		if err == nil {
			count(p.start)
			err = r.commit(p, verify(vs, p))
		}
		if err != nil {
			t.Fatal(err)
		}
		count()
	}
	return r.finish(), counts
}
