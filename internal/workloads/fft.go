package workloads

import (
	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// NTT parameters: p = 998244353 = 119*2^23 + 1, primitive root 3.
const (
	nttMod  = 998244353
	nttRoot = 3
)

func modpow(b, e, m int64) int64 {
	r := int64(1)
	b %= m
	for e > 0 {
		if e&1 == 1 {
			r = r * b % m
		}
		b = b * b % m
		e >>= 1
	}
	return r
}

// buildFFT runs the transform twice: NTT(NTT(a))[k] == n * a[(n-k) mod n],
// an exact identity over the ring, so the guest can verify its own result
// with no floating point and no host mirror.
func buildFFT(p Params, world *simos.World) *Built {
	p = p.norm()
	logn := 11 + (p.Scale-1)%3 // n = 2048 by default
	n := 1 << logn

	rng := newRNG(p.Seed + 31)
	orig := make([]Word, n)
	for i := range orig {
		orig[i] = rng.word(nttMod)
	}

	// Host-precomputed tables: bit-reversal permutation and per-stage
	// twiddle factors laid out stage-major.
	rev := make([]Word, n)
	for i := 0; i < n; i++ {
		r := 0
		for bit := 0; bit < logn; bit++ {
			if i&(1<<bit) != 0 {
				r |= 1 << (logn - 1 - bit)
			}
		}
		rev[i] = Word(r)
	}
	// tw[s*?]: for stage s (len = 2<<s), twiddles w^j for j < len/2.
	tw := make([]Word, 0, n-1) // 1 + 2 + ... + n/2 words
	twOff := make([]Word, logn)
	for s := 0; s < logn; s++ {
		length := 2 << s
		wl := modpow(nttRoot, (nttMod-1)/int64(length), nttMod)
		twOff[s] = Word(len(tw))
		w := int64(1)
		for j := 0; j < length/2; j++ {
			tw = append(tw, Word(w))
			w = w * wl % nttMod
		}
	}
	ninv := Word(modpow(int64(n), nttMod-2, nttMod))

	b := asm.NewBuilder("fft")
	failCell := b.Words(0)
	okCell := b.Words(0)
	origBase := b.Words(orig...)
	workBase := b.Words(orig...) // working copy, transformed in place
	revBase := b.Words(rev...)
	twBase := b.Words(tw...)
	twOffBase := b.Words(twOff...)
	W := Word(p.Workers)
	const barID = 77

	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		one := w.Const(1)
		nths := w.Const(W)
		bar := w.Const(barID)
		workA := w.Const(workBase)
		revA := w.Const(revBase)
		twA := w.Const(twBase)
		twOffA := w.Const(twOffBase)
		failA := w.Const(failCell)
		origA := w.Const(origBase)

		lo, hi, i, j, t, c := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		u, v, wreg, i1, i2, half, block := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		base, stage := w.Reg(), w.Reg()

		pass := func() {
			// Bit-reversal permutation: swap i <-> rev[i] for i < rev[i],
			// split by index range.
			split(w, k, lo, hi, t, Word(n), W, 0)
			w.Mov(i, lo)
			w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
				w.Ldx(j, revA, i)
				w.Slt(c, i, j)
				w.IfNz(c, func() {
					w.Ldx(u, workA, i)
					w.Ldx(v, workA, j)
					w.Stx(workA, i, v)
					w.Stx(workA, j, u)
				})
				w.Addi(i, i, 1)
			})
			w.Barrier(bar, nths)

			// Stages: n/2 butterflies each, split by butterfly index.
			w.Movi(stage, 0)
			w.ForLtImm(stage, Word(logn), func() {
				// half = 1 << stage
				w.Movi(half, 1)
				w.Shl(half, half, stage)
				w.Ldx(base, twOffA, stage)
				split(w, k, lo, hi, t, Word(n/2), W, 0)
				w.Mov(i, lo)
				w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
					// block = i / half ; j = i % half
					w.Div(block, i, half)
					w.Mod(j, i, half)
					// i1 = block*2*half + j ; i2 = i1 + half
					w.Mul(t, block, half)
					w.Muli(t, t, 2)
					w.Add(i1, t, j)
					w.Add(i2, i1, half)
					w.Add(t, base, j)
					w.Ldx(wreg, twA, t)
					w.Ldx(u, workA, i1)
					w.Ldx(v, workA, i2)
					w.Mul(v, v, wreg)
					w.Modi(v, v, nttMod)
					// work[i1] = (u+v) mod p ; work[i2] = (u-v+p) mod p
					w.Add(t, u, v)
					w.Modi(t, t, nttMod)
					w.Stx(workA, i1, t)
					w.Sub(t, u, v)
					w.Addi(t, t, nttMod)
					w.Modi(t, t, nttMod)
					w.Stx(workA, i2, t)
					w.Addi(i, i, 1)
				})
				w.Barrier(bar, nths)
			})
		}

		pass()
		pass()

		// Verify: work[m] * ninv == orig[(n-m) mod n] over this worker's range.
		split(w, k, lo, hi, t, Word(n), W, 0)
		w.Mov(i, lo)
		w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
			w.Ldx(u, workA, i)
			w.Muli(u, u, ninv)
			w.Modi(u, u, nttMod)
			// j = (n - i) mod n
			w.Movi(t, Word(n))
			w.Sub(j, t, i)
			w.Modi(j, j, Word(n))
			w.Ldx(v, origA, j)
			w.Sne(c, u, v)
			w.IfNz(c, func() { w.St(failA, 0, one) })
			w.Addi(i, i, 1)
		})
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		f, ok := m.Reg(), m.Reg()
		failA := m.Const(failCell)
		m.Ld(f, failA, 0)
		m.Seqi(ok, f, 0)
		return finish(b, m, ok, okCell, world)
	}
}
