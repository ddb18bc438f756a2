package workloads

import (
	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// buildLU factors an n x n matrix mod p in place (no pivoting — a random
// matrix over a large prime field is nonsingular with overwhelming
// probability) and verifies by reconstructing A = L*U exactly.
func buildLU(p Params, world *simos.World) *Built {
	p = p.norm()
	n := 40 + 4*p.Scale

	rng := newRNG(p.Seed + 41)
	a := make([]Word, n*n)
	for i := range a {
		a[i] = 1 + rng.word(nttMod-1) // nonzero entries
	}

	b := asm.NewBuilder("lu")
	failCell := b.Words(0)
	okCell := b.Words(0)
	matBase := b.Words(a...)  // factored in place
	origBase := b.Words(a...) // pristine copy for verification
	W := Word(p.Workers)
	const barID = 88

	// modpow(base, exp) mod p — used for pivot inversion (exp = p-2).
	mp := b.Func("modpow", 2)
	{
		base, exp := mp.Arg(0), mp.Arg(1)
		r, c := mp.Reg(), mp.Reg()
		mp.Movi(r, 1)
		mp.Modi(base, base, nttMod)
		mp.While(func() asm.Reg { mp.Slti(c, exp, 1); mp.Seqi(c, c, 0); return c }, func() {
			mp.Andi(c, exp, 1)
			mp.IfNz(c, func() {
				mp.Mul(r, r, base)
				mp.Modi(r, r, nttMod)
			})
			mp.Mul(base, base, base)
			mp.Modi(base, base, nttMod)
			mp.Shri(exp, exp, 1)
		})
		mp.Ret(r)
	}

	w := b.Func("worker", 1)
	{
		kw := w.Arg(0)
		one := w.Const(1)
		nths := w.Const(W)
		bar := w.Const(barID)
		matA := w.Const(matBase)
		origA := w.Const(origBase)
		failA := w.Const(failCell)
		kcol, i, j, c, t, piv, inv, l, rowI, rowK := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		u, v := w.Reg(), w.Reg()

		// Factorisation: for each pivot column k, workers eliminate the
		// rows i > k they own (round-robin by i mod W).
		w.Movi(kcol, 0)
		w.ForLtImm(kcol, Word(n-1), func() {
			// piv = mat[k][k]; inv = piv^(p-2)
			w.Muli(t, kcol, Word(n))
			w.Add(t, t, kcol)
			w.Ldx(piv, matA, t)
			w.Seqi(c, piv, 0)
			w.IfNz(c, func() { w.St(failA, 0, one) })
			exp := w.Reg()
			w.Movi(exp, nttMod-2)
			w.Call("modpow", piv, exp)
			w.Mov(inv, asm.RetReg)

			w.Addi(i, kcol, 1)
			w.ForLtImm(i, Word(n), func() {
				w.Modi(c, i, Word(p.Workers))
				w.Seq(c, c, kw)
				w.IfNz(c, func() {
					w.Muli(rowI, i, Word(n))
					w.Muli(rowK, kcol, Word(n))
					// l = mat[i][k] * inv mod p
					w.Add(t, rowI, kcol)
					w.Ldx(l, matA, t)
					w.Mul(l, l, inv)
					w.Modi(l, l, nttMod)
					w.Stx(matA, t, l)
					// row update for j > k
					w.Addi(j, kcol, 1)
					w.ForLtImm(j, Word(n), func() {
						w.Add(t, rowK, j)
						w.Ldx(u, matA, t)
						w.Mul(u, u, l)
						w.Modi(u, u, nttMod)
						w.Add(t, rowI, j)
						w.Ldx(v, matA, t)
						w.Sub(v, v, u)
						w.Addi(v, v, nttMod)
						w.Modi(v, v, nttMod)
						w.Stx(matA, t, v)
					})
				})
			})
			w.Barrier(bar, nths)
		})

		// Verification: (L*U)[i][j] == orig[i][j] for the rows this worker
		// owns. L has unit diagonal and lives below it; U on and above.
		sum, d, lim := w.Reg(), w.Reg(), w.Reg()
		w.Movi(i, 0)
		w.ForLtImm(i, Word(n), func() {
			w.Modi(c, i, Word(p.Workers))
			w.Seq(c, c, kw)
			w.IfNz(c, func() {
				w.Muli(rowI, i, Word(n))
				w.Movi(j, 0)
				w.ForLtImm(j, Word(n), func() {
					// lim = min(i, j); sum = Σ_{d<lim} L[i][d]*U[d][j], then
					// + (d==i ? U[i][j] : L[i][d]*U[d][j] at d=lim if lim==i)
					w.Slt(c, i, j)
					w.IfElse(c,
						func() { w.Mov(lim, i) },
						func() { w.Mov(lim, j) },
					)
					w.Movi(sum, 0)
					w.Movi(d, 0)
					w.ForLt(d, lim, func() {
						w.Add(t, rowI, d)
						w.Ldx(u, matA, t)
						w.Muli(t, d, Word(n))
						w.Add(t, t, j)
						w.Ldx(v, matA, t)
						w.Mul(u, u, v)
						w.Modi(u, u, nttMod)
						w.Add(sum, sum, u)
						w.Modi(sum, sum, nttMod)
					})
					// Diagonal term: if i <= j, L[i][i] = 1 so add U[i][j];
					// else add L[i][j] * U[j][j].
					w.Sle(c, i, j)
					w.IfElse(c,
						func() {
							w.Add(t, rowI, j)
							w.Ldx(u, matA, t)
							w.Add(sum, sum, u)
							w.Modi(sum, sum, nttMod)
						},
						func() {
							w.Add(t, rowI, j)
							w.Ldx(u, matA, t)
							w.Muli(t, j, Word(n))
							w.Add(t, t, j)
							w.Ldx(v, matA, t)
							w.Mul(u, u, v)
							w.Modi(u, u, nttMod)
							w.Add(sum, sum, u)
							w.Modi(sum, sum, nttMod)
						},
					)
					w.Add(t, rowI, j)
					w.Ldx(v, origA, t)
					w.Sne(c, sum, v)
					w.IfNz(c, func() { w.St(failA, 0, one) })
				})
			})
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
