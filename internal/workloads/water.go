package workloads

import (
	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// buildWater simulates n particles on a 1-D ring with integer linear
// "spring" forces. Positions and velocities stay exact integers (shifts and
// masks only), so the host mirrors the computation and embeds the expected
// checksum.
func buildWater(p Params, world *simos.World) *Built {
	p = p.norm()
	n := 48 + 48*p.Scale
	steps := 10
	const mask = (1 << 24) - 1

	rng := newRNG(p.Seed + 71)
	pos := make([]Word, n)
	vel := make([]Word, n)
	for i := range pos {
		pos[i] = rng.word(1 << 24)
		vel[i] = rng.word(256) - 128
	}

	// Host mirror.
	hp := append([]Word(nil), pos...)
	hv := append([]Word(nil), vel...)
	hf := make([]Word, n)
	for s := 0; s < steps; s++ {
		for i := 0; i < n; i++ {
			var f Word
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				f += (hp[j] - hp[i]) >> 12
			}
			hf[i] = f
		}
		for i := 0; i < n; i++ {
			hv[i] += hf[i] >> 4
			hp[i] = (hp[i] + hv[i]) & mask
		}
	}
	var expect Word
	for i := 0; i < n; i++ {
		expect += hp[i]*Word(i%13+1) + hv[i]
	}

	b := asm.NewBuilder("water")
	okCell := b.Words(0)
	posBase := b.Words(pos...)
	velBase := b.Words(vel...)
	forceBase := b.Zeros(n)
	W := Word(p.Workers)
	const barID = 44

	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		nths := w.Const(W)
		bar := w.Const(barID)
		posA := w.Const(posBase)
		velA := w.Const(velBase)
		forA := w.Const(forceBase)
		lo, hi, i, j, c, t, f, xi, xj, v, st := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()

		split(w, k, lo, hi, t, Word(n), W, 0)

		w.Movi(st, 0)
		w.ForLtImm(st, Word(steps), func() {
			// Force phase: read all positions, write own force slots.
			w.Mov(i, lo)
			w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
				w.Movi(f, 0)
				w.Ldx(xi, posA, i)
				w.Movi(j, 0)
				w.ForLtImm(j, Word(n), func() {
					w.Sne(c, j, i)
					w.IfNz(c, func() {
						w.Ldx(xj, posA, j)
						w.Sub(t, xj, xi)
						w.Shri(t, t, 12)
						w.Add(f, f, t)
					})
				})
				w.Stx(forA, i, f)
				w.Addi(i, i, 1)
			})
			w.Barrier(bar, nths)

			// Integration phase: update own positions and velocities.
			w.Mov(i, lo)
			w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
				w.Ldx(f, forA, i)
				w.Shri(f, f, 4)
				w.Ldx(v, velA, i)
				w.Add(v, v, f)
				w.Stx(velA, i, v)
				w.Ldx(xi, posA, i)
				w.Add(xi, xi, v)
				w.Andi(xi, xi, mask)
				w.Stx(posA, i, xi)
				w.Addi(i, i, 1)
			})
			w.Barrier(bar, nths)
		})
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		sum, i, v, t, c := m.Reg(), m.Reg(), m.Reg(), m.Reg(), m.Reg()
		posA := m.Const(posBase)
		velA := m.Const(velBase)
		m.Movi(sum, 0)
		m.Movi(i, 0)
		m.ForLtImm(i, Word(n), func() {
			m.Ldx(v, posA, i)
			m.Modi(t, i, 13)
			m.Addi(t, t, 1)
			m.Mul(v, v, t)
			m.Add(sum, sum, v)
			m.Ldx(v, velA, i)
			m.Add(sum, sum, v)
		})
		m.Seqi(c, sum, expect)
		return finish(b, m, c, okCell, world)
	}
}
