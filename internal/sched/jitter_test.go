package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// refJitter is the definition of the jitter stream: one Intn(64) per
// retirement, and an Intn(24) for the size right after a hit.
func refJitter(ref *rand.Rand) (gap int, extra int64) {
	for ref.Intn(64) != 0 {
		gap++
	}
	return gap, int64(ref.Intn(24))
}

// TestJitterStreamIsMathRand pins the one thing jitter.go assumes about the
// toolchain: that rand.NewSource is the 607/273 additive lagged-Fibonacci
// generator and Intn reads it the way jitterStream spells out. Every
// schedule, cycle count and log byte in the repo hangs off this stream.
func TestJitterStreamIsMathRand(t *testing.T) {
	pairs := 1 << 20
	if testing.Short() {
		pairs = 1 << 14
	}
	seeds := []int64{0, -1, 1<<62 + 12345, -1 << 63}
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel() // the reference draws are the slow side, most of all under -race
			ref := rand.New(rand.NewSource(seed))
			var j jitterStream
			j.seed(seed)
			var straddles, extraAfterRefill int
			for i := 0; i < pairs; i++ {
				if i == pairs/2 {
					// The Resume path: a new seed into a ring in mid-use.
					ref.Seed(^seed)
					j.seed(^seed)
				}
				from := j.pos
				gap := j.gap()
				if from < jitterLen && from+gap >= jitterLen {
					straddles++
				}
				if j.pos == jitterLen {
					extraAfterRefill++
				}
				extra := j.intn24()
				if wantGap, wantExtra := refJitter(ref); gap != wantGap || extra != wantExtra {
					t.Fatalf("pair %d: gap %d, extra %d; math/rand draws gap %d, extra %d", i, gap, extra, wantGap, wantExtra)
				}
			}
			if straddles < 100 || extraAfterRefill == 0 {
				t.Fatalf("%d gaps straddled a refill and %d sizes were the first draw after one: the stream is too short for this test",
					straddles, extraAfterRefill)
			}
		})
	}

	// Int31n's rejection loop turns once in 2^28 draws, so no seeded stream
	// reaches it: hand both sides the same words instead.
	t.Run("rejection", func(t *testing.T) {
		int31 := func(v uint64) uint64 { return v<<32 | 0xdeadbeef }
		words := []uint64{
			int31(1<<31 - 1), int31(jitterExtraMax + 1), 1<<63 | int31(jitterExtraMax+1), int31(jitterExtraMax),
			int31(1<<31 - 1), int31(23),
			int31(24),
		}
		var j jitterStream
		j.pos = jitterLen - len(words)
		copy(j.ring[j.pos:], words)
		ref := rand.New(&wordSource{words: words})
		for i := 0; i < 3; i++ {
			if got, want := j.intn24(), int64(ref.Intn(24)); got != want {
				t.Fatalf("draw %d: intn24 %d, Intn(24) %d", i, got, want)
			}
		}
		if j.pos != jitterLen {
			t.Fatalf("three draws consumed %d of %d words", j.pos-(jitterLen-len(words)), len(words))
		}
	})

	// And the scheduler hands the stream on unchanged, at the start and
	// after a Resume.
	t.Run("Parallel", func(t *testing.T) {
		bt := workloads.Get("fft").Build(workloads.Params{Workers: 2, Seed: 1})
		m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
		ref := rand.New(rand.NewSource(41))
		p := NewParallel(m, 2, 41)
		for i := 0; i < 3; i++ {
			for k := 0; k < 1000; k++ {
				if gap, extra := refJitter(ref); p.jitterGap != gap || p.jitterExtra != extra {
					t.Fatalf("round %d, draw %d: scheduler holds gap %d, extra %d; math/rand draws %d, %d", i, k, p.jitterGap, p.jitterExtra, gap, extra)
				}
				p.drawJitter()
			}
			ref.Seed(int64(-7 * i))
			p.Resume(m, int64(-7*i), 0)
		}
	})
}

// wordSource is a rand.Source64 that replays words.
type wordSource struct {
	words []uint64
}

func (s *wordSource) Uint64() uint64 {
	x := s.words[0]
	s.words = s.words[1:]
	return x
}
func (s *wordSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
func (s *wordSource) Seed(int64)   {}

// TestJitterSeedDoesNotAllocate: the ring lives in the Parallel and the
// source it is primed from is pooled, so a scheduler costs one allocation
// less than when it held a rand.Rand, not one more.
func TestJitterSeedDoesNotAllocate(t *testing.T) {
	var j jitterStream
	j.seed(1)
	if n := testing.AllocsPerRun(100, func() { j.seed(2) }); n != 0 {
		t.Fatalf("seeding allocates %v times", n)
	}
}

// BenchmarkDrawJitter is drawJitter's work alone: a gap and a size, over a
// stream that refills the ring about once per nine pairs.
func BenchmarkDrawJitter(b *testing.B) {
	var j jitterStream
	j.seed(17)
	var draws, sink int64
	for i := 0; i < b.N; i++ {
		gap := j.gap()
		sink += j.intn24()
		draws += int64(gap) + 2
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
	b.ReportMetric(float64(draws)/1e6/b.Elapsed().Seconds(), "Mdraws/s")
}
