package asm

// InstallStdlib defines the guest runtime library in b: a set of callable
// routines ("std.memcpy", "std.memset", "std.memcmp", "std.sum", "std.max",
// "std.fill_lcg", "std.checksum", "std.bsearch") that workloads and user
// programs can Call by name. Install it once, before Build; the routines
// are plain guest functions, so they are recorded, replayed, timesliced,
// and interrupted by signals like any other guest code.
func InstallStdlib(b *Builder) {
	// std.memcpy(dst, src, n): copies n words; returns dst.
	{
		f := b.Func("std.memcpy", 3)
		dst, src, n := f.Arg(0), f.Arg(1), f.Arg(2)
		i, v := f.Reg(), f.Reg()
		f.Movi(i, 0)
		f.ForLt(i, n, func() {
			f.Ldx(v, src, i)
			f.Stx(dst, i, v)
		})
		f.Ret(dst)
	}

	// std.memset(dst, val, n): stores val into n words; returns dst.
	{
		f := b.Func("std.memset", 3)
		dst, val, n := f.Arg(0), f.Arg(1), f.Arg(2)
		i := f.Reg()
		f.Movi(i, 0)
		f.ForLt(i, n, func() {
			f.Stx(dst, i, val)
		})
		f.Ret(dst)
	}

	// std.memcmp(a, b, n): returns the index of the first differing word,
	// or -1 if the ranges are equal.
	{
		f := b.Func("std.memcmp", 3)
		a, bb, n := f.Arg(0), f.Arg(1), f.Arg(2)
		i, x, y, c, out := f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg()
		f.Movi(out, -1)
		f.Movi(i, 0)
		done := f.NewLabel()
		f.ForLt(i, n, func() {
			f.Ldx(x, a, i)
			f.Ldx(y, bb, i)
			f.Sne(c, x, y)
			f.IfNz(c, func() {
				f.Mov(out, i)
				f.Jump(done)
			})
		})
		f.Label(done)
		f.Ret(out)
	}

	// std.sum(base, n): returns the sum of n words.
	{
		f := b.Func("std.sum", 2)
		base, n := f.Arg(0), f.Arg(1)
		i, v, s := f.Reg(), f.Reg(), f.Reg()
		f.Movi(s, 0)
		f.Movi(i, 0)
		f.ForLt(i, n, func() {
			f.Ldx(v, base, i)
			f.Add(s, s, v)
		})
		f.Ret(s)
	}

	// std.max(base, n): returns the maximum of n words (n must be >= 1).
	{
		f := b.Func("std.max", 2)
		base, n := f.Arg(0), f.Arg(1)
		i, v, m, c := f.Reg(), f.Reg(), f.Reg(), f.Reg()
		f.Ld(m, base, 0)
		f.Movi(i, 1)
		f.ForLt(i, n, func() {
			f.Ldx(v, base, i)
			f.Slt(c, m, v)
			f.IfNz(c, func() { f.Mov(m, v) })
		})
		f.Ret(m)
	}

	// std.fill_lcg(base, n, seed): fills n words from a 64-bit LCG stream;
	// returns the final generator state, so calls can be chained.
	{
		f := b.Func("std.fill_lcg", 3)
		base, n, x := f.Arg(0), f.Arg(1), f.Arg(2)
		i, v := f.Reg(), f.Reg()
		f.Movi(i, 0)
		f.ForLt(i, n, func() {
			f.Muli(x, x, 6364136223846793005)
			f.Addi(x, x, 1442695040888963407)
			f.Shri(v, x, 17)
			f.Andi(v, v, (1<<40)-1)
			f.Stx(base, i, v)
		})
		f.Ret(x)
	}

	// std.checksum(base, n): order-dependent checksum of n words.
	{
		f := b.Func("std.checksum", 2)
		base, n := f.Arg(0), f.Arg(1)
		i, v, h, t := f.Reg(), f.Reg(), f.Reg(), f.Reg()
		f.Movi(h, 1469598103934665603)
		f.Movi(i, 0)
		f.ForLt(i, n, func() {
			f.Ldx(v, base, i)
			f.Xor(h, h, v)
			f.Muli(h, h, 1099511628211)
			f.Shri(t, h, 29)
			f.Xor(h, h, t)
		})
		f.Ret(h)
	}

	// std.bsearch(base, n, key): binary search over n ascending words;
	// returns an index holding key, or -1.
	{
		f := b.Func("std.bsearch", 3)
		base, n, key := f.Arg(0), f.Arg(1), f.Arg(2)
		lo, hi, mid, v, c, out := f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg()
		f.Movi(out, -1)
		f.Movi(lo, 0)
		f.Mov(hi, n)
		done := f.NewLabel()
		f.While(func() Reg { f.Slt(c, lo, hi); return c }, func() {
			f.Add(mid, lo, hi)
			f.Shri(mid, mid, 1)
			f.Ldx(v, base, mid)
			f.Seq(c, v, key)
			f.IfNz(c, func() {
				f.Mov(out, mid)
				f.Jump(done)
			})
			f.Slt(c, v, key)
			f.IfElse(c,
				func() { f.Addi(lo, mid, 1) },
				func() { f.Mov(hi, mid) },
			)
		})
		f.Label(done)
		f.Ret(out)
	}
}
