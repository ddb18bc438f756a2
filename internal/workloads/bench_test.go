package workloads

import "testing"

// sink keeps the benchmarked builds live.
var sink *Built

// BenchmarkBuild times one build of each guest at 4 workers: host-side
// input synthesis, assembly and the world the build ships with, with
// B/op beside. The -scale2 cases build the guest at Scale 2, whose data
// segments and inputs are larger.
func BenchmarkBuild(b *testing.B) {
	for _, wl := range All() {
		for _, c := range []struct {
			suffix string
			scale  int
		}{{"", 1}, {"-scale2", 2}} {
			b.Run(wl.Name+c.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = wl.Build(Params{Workers: 4, Seed: 17, Scale: c.scale})
				}
			})
		}
	}
}
