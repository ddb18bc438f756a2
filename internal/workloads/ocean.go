package workloads

import (
	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// buildOcean iterates new[i][j] = (up + down + left + right) / 4 over the
// grid interior with double buffering. Integer division makes the
// computation exact, so the host mirrors it and embeds the expected
// checksum for the guest's self-check.
func buildOcean(p Params, world *simos.World) *Built {
	p = p.norm()
	g := 40 + 8*p.Scale // grid side
	iters := 24

	rng := newRNG(p.Seed + 61)
	grid := make([]Word, g*g)
	for i := range grid {
		grid[i] = rng.word(1 << 20)
	}

	// Host mirror of the exact computation.
	cur := append([]Word(nil), grid...)
	nxt := make([]Word, g*g)
	for it := 0; it < iters; it++ {
		copy(nxt, cur) // borders carry over
		for i := 1; i < g-1; i++ {
			for j := 1; j < g-1; j++ {
				nxt[i*g+j] = (cur[(i-1)*g+j] + cur[(i+1)*g+j] + cur[i*g+j-1] + cur[i*g+j+1]) / 4
			}
		}
		cur, nxt = nxt, cur
	}
	var expect Word
	for i, v := range cur {
		expect += v * Word(i%31+1)
	}

	b := asm.NewBuilder("ocean")
	failCell := b.Words(0)
	okCell := b.Words(0)
	bufA := b.Words(grid...)
	bufB := b.Words(grid...) // borders pre-seeded so carry-over is free
	W := Word(p.Workers)
	const barID = 55

	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		nths := w.Const(W)
		bar := w.Const(barID)
		aA := w.Const(bufA)
		bA := w.Const(bufB)
		src, dst, tmp := w.Reg(), w.Reg(), w.Reg()
		lo, hi, i, j, c, t, s, row := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		it := w.Reg()

		// Interior rows [1, g-1) split across workers.
		split(w, k, lo, hi, t, Word(g-2), W, 1)

		w.Mov(src, aA)
		w.Mov(dst, bA)

		w.Movi(it, 0)
		w.ForLtImm(it, Word(iters), func() {
			w.Mov(i, lo)
			w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
				w.Muli(row, i, Word(g))
				w.Movi(j, 1)
				w.ForLtImm(j, Word(g-1), func() {
					// s = up + down + left + right
					w.Add(t, row, j)
					w.Addi(t, t, -Word(g))
					w.Ldx(s, src, t)
					w.Add(t, row, j)
					w.Addi(t, t, Word(g))
					w.Ldx(c, src, t)
					w.Add(s, s, c)
					w.Add(t, row, j)
					w.Addi(t, t, -1)
					w.Ldx(c, src, t)
					w.Add(s, s, c)
					w.Add(t, row, j)
					w.Addi(t, t, 1)
					w.Ldx(c, src, t)
					w.Add(s, s, c)
					w.Divi(s, s, 4)
					w.Add(t, row, j)
					w.Stx(dst, t, s)
				})
				w.Addi(i, i, 1)
			})
			w.Barrier(bar, nths)
			w.Mov(tmp, src)
			w.Mov(src, dst)
			w.Mov(dst, tmp)
		})
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		// After an even iteration count the final state is in bufA.
		final := bufA
		if iters%2 == 1 {
			final = bufB
		}
		sum, i, v, t, c := m.Reg(), m.Reg(), m.Reg(), m.Reg(), m.Reg()
		fA := m.Const(final)
		m.Movi(sum, 0)
		m.Movi(i, 0)
		m.ForLtImm(i, Word(g*g), func() {
			m.Ldx(v, fA, i)
			m.Modi(t, i, 31)
			m.Addi(t, t, 1)
			m.Mul(v, v, t)
			m.Add(sum, sum, v)
		})
		m.Seqi(c, sum, expect)
		failed(m, m.Reg(), c, failCell)
		return finish(b, m, c, okCell, world)
	}
}
