package workloads

import (
	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// buildRadix sorts nElems 24-bit keys with three 8-bit passes. Each pass:
// per-worker histogram over its input segment; worker 0 computes global
// (digit, worker) offsets; workers scatter their segments stably. The guest
// verifies sortedness and a permutation checksum.
func buildRadix(p Params, world *simos.World) *Built {
	p = p.norm()
	nElems := 10000 * p.Scale
	const radix = 256
	const passes = 3

	rng := newRNG(p.Seed + 51)
	input := make([]Word, nElems)
	var checksum Word
	for i := range input {
		input[i] = rng.word(1 << 24)
		checksum += input[i] ^ (input[i] >> 7)
	}

	b := asm.NewBuilder("radix")
	failCell := b.Words(0)
	okCell := b.Words(0)
	bufA := b.Words(input...)
	bufB := b.Zeros(nElems)
	// hist[w][d]: per-worker digit counts; off[w][d]: scatter cursors.
	histBase := b.Zeros(p.Workers * radix)
	offBase := b.Zeros(p.Workers * radix)
	W := Word(p.Workers)
	const barID = 66

	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		one := w.Const(1)
		nths := w.Const(W)
		bar := w.Const(barID)
		aA := w.Const(bufA)
		bA := w.Const(bufB)
		histA := w.Const(histBase)
		offA := w.Const(offBase)
		failA := w.Const(failCell)
		src, dst, tmp := w.Reg(), w.Reg(), w.Reg()
		lo, hi, i, c, t, v, d := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		myHist, myOff, pass, shift := w.Reg(), w.Reg(), w.Reg(), w.Reg()
		wi, di, run := w.Reg(), w.Reg(), w.Reg()

		split(w, k, lo, hi, t, Word(nElems), W, 0)
		w.Muli(myHist, k, radix)
		w.Add(myHist, myHist, histA)
		w.Muli(myOff, k, radix)
		w.Add(myOff, myOff, offA)

		w.Mov(src, aA)
		w.Mov(dst, bA)

		w.Movi(pass, 0)
		w.ForLtImm(pass, passes, func() {
			w.Muli(shift, pass, 8)

			// Clear my histogram.
			w.Movi(i, 0)
			w.ForLtImm(i, radix, func() {
				t0 := w.Reg()
				w.Movi(t0, 0)
				w.Stx(myHist, i, t0)
			})
			// Count digits over my segment.
			w.Mov(i, lo)
			w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
				w.Ldx(v, src, i)
				w.Shr(d, v, shift)
				w.Andi(d, d, radix-1)
				w.Ldx(t, myHist, d)
				w.Addi(t, t, 1)
				w.Stx(myHist, d, t)
				w.Addi(i, i, 1)
			})
			w.Barrier(bar, nths)

			// Worker 0 computes global offsets: for digit d ascending, for
			// worker wi ascending, off[wi][d] = running total.
			w.Seqi(c, k, 0)
			w.IfNz(c, func() {
				w.Movi(run, 0)
				w.Movi(di, 0)
				w.ForLtImm(di, radix, func() {
					w.Movi(wi, 0)
					w.ForLtImm(wi, W, func() {
						w.Muli(t, wi, radix)
						w.Add(t, t, di)
						w.Ldx(v, histA, t)
						w.Stx(offA, t, run)
						w.Add(run, run, v)
					})
				})
			})
			w.Barrier(bar, nths)

			// Stable scatter of my segment using my offset cursors.
			w.Mov(i, lo)
			w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
				w.Ldx(v, src, i)
				w.Shr(d, v, shift)
				w.Andi(d, d, radix-1)
				w.Ldx(t, myOff, d)
				w.Stx(dst, t, v)
				w.Addi(t, t, 1)
				w.Stx(myOff, d, t)
				w.Addi(i, i, 1)
			})
			w.Barrier(bar, nths)

			// Swap src/dst for the next pass.
			w.Mov(tmp, src)
			w.Mov(src, dst)
			w.Mov(dst, tmp)
		})

		// Verification over my range of the final array (odd pass count
		// means the result lives in src after the last swap): adjacent
		// order plus the permutation checksum.
		sum := w.Reg()
		w.Movi(sum, 0)
		w.Mov(i, lo)
		w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
			w.Ldx(v, src, i)
			w.Shri(t, v, 7)
			w.Xor(t, v, t)
			w.Add(sum, sum, t)
			w.Slti(c, i, Word(nElems-1))
			w.IfNz(c, func() {
				w.Addi(t, i, 1)
				w.Ldx(d, src, t)
				w.Slt(c, d, v)
				w.IfNz(c, func() { w.St(failA, 0, one) })
			})
			w.Addi(i, i, 1)
		})
		// Publish partial checksum into hist[k][0] (reused as scratch).
		w.St(myHist, 0, sum)
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		sum, i, v, c, t, f := m.Reg(), m.Reg(), m.Reg(), m.Reg(), m.Reg(), m.Reg()
		histA := m.Const(histBase)
		m.Movi(sum, 0)
		m.Movi(i, 0)
		m.ForLtImm(i, W, func() {
			m.Muli(t, i, radix)
			m.Ldx(v, histA, t)
			m.Add(sum, sum, v)
		})
		m.Movi(c, 0)
		m.Seqi(c, sum, checksum)
		failed(m, f, c, failCell)
		return finish(b, m, c, okCell, world)
	}
}
