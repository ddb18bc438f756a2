package sched

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// refPlace is place one retirement at a time, the way RunUntil's loop
// meets them: the next is the smallest start cycle of any CPU, the lowest
// CPU on ties; a slow one delays the rest of its CPU; a CPU whose next
// start is span or later retires nothing more. starts[ci] are CPU ci's
// start cycles, in order, as if no retirement were slow.
func refPlace(p *Parallel, starts [][]int64, span int64) (at []uint64, delay []int64) {
	at, delay = make([]uint64, len(starts)), make([]int64, len(starts))
	next := make([]int, len(starts))
	for {
		ci, s := -1, span
		for cj := range starts {
			if next[cj] < len(starts[cj]) && starts[cj][next[cj]]+delay[cj] < s {
				ci, s = cj, starts[cj][next[cj]]+delay[cj]
			}
		}
		if ci < 0 {
			return at, delay
		}
		at[ci] |= 1 << s
		next[ci]++
		if p.jitterGap == 0 {
			delay[ci] += p.jitterExtra
			p.drawJitter()
		} else {
			p.jitterGap--
		}
	}
}

// checkPlacement builds a window from fuzz input and holds place to
// refPlace. cpus picks 1–5 CPUs; span is the window's length, as a limit
// below lo + maxWindowSpan makes it; each CPU takes nine bytes of data, its
// clock's distance from the window's start and its start cycles' mask from
// there. gap and extra are the jitter already drawn; the ring that follows
// is made of words from seed, one in 1+density%16 of them a hit.
func checkPlacement(t *testing.T, cpus, span uint8, data []byte, gap, extra uint8, seed int64, density uint8) {
	n := 1 + int(cpus)%5
	w := minWindowSpan + int64(span)%(maxWindowSpan-minWindowSpan+1)
	var p Parallel
	p.win = make([]winCPU, n)
	starts := make([][]int64, n)
	for ci := range p.win {
		var b [9]byte
		copy(b[:], data[min(len(data), 9*ci):])
		off := int64(b[0]) % w
		mask := binary.LittleEndian.Uint64(b[1:]) & (uint64(1)<<(w-off) - 1)
		p.win[ci].at = mask << off
		for m := p.win[ci].at; m != 0; m &= m - 1 {
			starts[ci] = append(starts[ci], int64(bits.TrailingZeros64(m)))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	k := 0
	for i := range p.jitter.ring {
		x := rng.Uint64() | 1<<32
		if rng.Intn(1+int(density)%16) == 0 {
			x &^= jitterHitMask
		}
		p.jitter.ring[i] = x
		k = p.jitter.index(k, i, x)
	}
	p.jitter.rewind(k)
	p.jitterGap, p.jitterExtra = int(gap), int64(extra)%jitterExtraN
	ref := Parallel{jitter: p.jitter, jitterGap: p.jitterGap, jitterExtra: p.jitterExtra}
	wantAt, wantDelay := refPlace(&ref, starts, w)

	total := p.place(w)

	var want uint64
	for ci := range p.win {
		want += uint64(bits.OnesCount64(wantAt[ci]))
		if p.win[ci].at != wantAt[ci] || p.win[ci].delay != wantDelay[ci] {
			t.Errorf("CPU %d of %d, span %d: starts %b delayed %d; one at a time %b delayed %d",
				ci, n, w, p.win[ci].at, p.win[ci].delay, wantAt[ci], wantDelay[ci])
		}
	}
	if total != want || p.jitter != ref.jitter || p.jitterGap != ref.jitterGap || p.jitterExtra != ref.jitterExtra {
		t.Errorf("kept %d, jitter gap %d, extra %d, ring at %d; one at a time %d, %d, %d, %d",
			total, p.jitterGap, p.jitterExtra, p.jitter.pos, want, ref.jitterGap, ref.jitterExtra, ref.jitter.pos)
	}
}

// FuzzJitterPlacement holds place, which charges a window's jitter with
// popcounts, to a merge of the CPUs' retirements one at a time.
func FuzzJitterPlacement(f *testing.F) {
	all := []byte{0, 255, 255, 255, 255, 255, 255, 255, 255}
	ties := append(append(append([]byte(nil), all...), all...), all...)
	f.Add(uint8(2), uint8(29), ties, uint8(34), uint8(5), int64(1), uint8(0))  // three CPUs start together every cycle; the hit is CPU 1's
	f.Add(uint8(0), uint8(29), all, uint8(31), uint8(7), int64(2), uint8(0))   // a hit on the last retirement of the window
	f.Add(uint8(1), uint8(17), ties, uint8(0), uint8(23), int64(3), uint8(15)) // a delay that pushes all of CPU 0's later starts out
	f.Add(uint8(4), uint8(255), []byte("five CPUs with starts here and there, clocks apart"), uint8(2), uint8(9), int64(4), uint8(1))
	f.Add(uint8(3), uint8(7), []byte{5, 0x55, 0x55, 0x55, 0x55, 0, 0, 0, 0, 1, 0xaa, 0xaa}, uint8(0), uint8(0), int64(5), uint8(0)) // hit after hit
	f.Fuzz(checkPlacement)
}

// TestJitterPlacement is FuzzJitterPlacement over random input, so the
// comparison runs in every `go test`.
func TestJitterPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 3000 && !t.Failed(); i++ {
		data := make([]byte, 45)
		rng.Read(data)
		checkPlacement(t, uint8(rng.Intn(5)), uint8(rng.Intn(256)), data, uint8(rng.Intn(100)), uint8(rng.Intn(24)), rng.Int63(), uint8(rng.Intn(16)))
	}
}
