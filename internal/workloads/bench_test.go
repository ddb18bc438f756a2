package workloads

import "testing"

// sink keeps the benchmarked builds live.
var sink *Built

// BenchmarkBuild times one build of each guest at 4 workers: host-side
// input synthesis, assembly and the world the build ships with. Run with
// -benchmem for B/op.
func BenchmarkBuild(b *testing.B) {
	for _, wl := range All() {
		b.Run(wl.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = wl.Build(Params{Workers: 4, Seed: 17})
			}
		})
	}
}
