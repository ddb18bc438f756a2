package workloads

import (
	"testing"

	"doubleplay/internal/vm"
)

// Sinks keep the benchmarked builds live.
var (
	sink     *Built
	progSink *vm.Program
)

// BenchmarkBuild times one build of each guest at 4 workers: host-side
// input synthesis, assembly and the world the build ships with, with
// B/op beside. The -scale2 cases build the guest at Scale 2, whose data
// segments and inputs are larger. The -program cases build the program
// alone, as a replay does.
func BenchmarkBuild(b *testing.B) {
	for _, wl := range All() {
		for _, c := range []struct {
			suffix  string
			scale   int
			program bool
		}{{"", 1, false}, {"-scale2", 2, false}, {"-program", 1, true}} {
			b.Run(wl.Name+c.suffix, func(b *testing.B) {
				b.ReportAllocs()
				p := Params{Workers: 4, Seed: 17, Scale: c.scale}
				for i := 0; i < b.N; i++ {
					if c.program {
						progSink = wl.Program(p)
					} else {
						sink = wl.Build(p)
					}
				}
			})
		}
	}
}
