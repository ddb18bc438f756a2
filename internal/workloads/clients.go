package workloads

import (
	"fmt"

	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// --- pbzip -------------------------------------------------------------------

func buildPbzip(p Params, world *simos.World) *Built {
	p = p.norm()
	nblocks := 80 + 80*p.Scale
	const blockW = 480
	slotW := 2*blockW + 1 // [len, (value,run)...] worst case 2x expansion

	// Input with runs so RLE has work to do.
	rng := newRNG(p.Seed)
	input := make([]Word, 0, nblocks*blockW)
	for len(input) < nblocks*blockW {
		v := rng.word(8)
		run := 1 + rng.intn(20)
		for r := 0; r < run && len(input) < nblocks*blockW; r++ {
			input = append(input, v)
		}
	}

	b := asm.NewBuilder("pbzip")
	next := b.Words(0)
	fail := b.Words(0)
	okCell := b.Words(0)
	inBase := b.Words(input...)
	outBase := b.Zeros(nblocks * slotW)

	w := b.Func("worker", 1)
	{
		blk := w.Reg()
		one := w.Const(1)
		nextA := w.Const(next)
		failA := w.Const(fail)
		zero := w.Const(0)
		inPtr, outPtr, slotPtr := w.Reg(), w.Reg(), w.Reg()
		i, n, v, run, t, u, c := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		j, i2, k := w.Reg(), w.Reg(), w.Reg()

		loop, done := w.NewLabel(), w.NewLabel()
		w.Label(loop)
		w.Fadd(blk, nextA, one)
		w.Slti(c, blk, Word(nblocks))
		w.Jz(c, done)

		w.Muli(t, blk, blockW)
		w.Addi(inPtr, t, inBase)
		w.Muli(t, blk, Word(slotW))
		w.Addi(slotPtr, t, outBase)
		w.Addi(outPtr, slotPtr, 1)

		// RLE compress the block.
		w.Movi(i, 0)
		w.Movi(n, 0)
		w.While(func() asm.Reg { w.Slti(c, i, blockW); return c }, func() {
			w.Ldx(v, inPtr, i)
			w.Movi(run, 1)
			w.While(func() asm.Reg {
				w.Add(t, i, run)
				w.Slti(c, t, blockW)
				w.IfNz(c, func() {
					w.Ldx(u, inPtr, t)
					w.Seq(c, u, v)
					w.IfNz(c, func() { w.Slti(c, run, 255) })
				})
				return c
			}, func() {
				w.Addi(run, run, 1)
			})
			w.Stx(outPtr, n, v)
			w.Addi(t, n, 1)
			w.Stx(outPtr, t, run)
			w.Addi(n, n, 2)
			w.Add(i, i, run)
		})
		w.St(slotPtr, 0, n)

		// Verify: decompress and compare against the input block.
		w.Movi(j, 0)
		w.Movi(i2, 0)
		w.While(func() asm.Reg { w.Slt(c, j, n); return c }, func() {
			w.Ldx(v, outPtr, j)
			w.Addi(t, j, 1)
			w.Ldx(run, outPtr, t)
			w.Movi(k, 0)
			w.ForLt(k, run, func() {
				w.Add(t, i2, k)
				w.Ldx(u, inPtr, t)
				w.Sne(c, u, v)
				w.IfNz(c, func() { w.St(failA, 0, one) })
			})
			w.Add(i2, i2, run)
			w.Addi(j, j, 2)
		})
		w.Snei(c, i2, blockW)
		w.IfNz(c, func() { w.St(failA, 0, one) })

		// Commit the compressed block externally.
		w.Sys(simos.SysWrite, zero, outPtr, n)
		w.Jump(loop)

		w.Label(done)
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		allok := m.Const(1)
		c := m.Reg()
		t := m.Reg()
		failA := m.Const(fail)
		m.Ld(c, failA, 0)
		m.IfNz(c, func() { m.Movi(allok, 0) })
		// Every slot must have been produced (length >= 2).
		blk := m.Reg()
		outA := m.Const(outBase)
		ln := m.Reg()
		m.Movi(blk, 0)
		m.ForLtImm(blk, Word(nblocks), func() {
			m.Muli(t, blk, Word(slotW))
			m.Ldx(ln, outA, t)
			m.Slti(c, ln, 2)
			m.IfNz(c, func() { m.Movi(allok, 0) })
		})
		return finish(b, m, allok, okCell, world)
	}
}

// --- pfscan ------------------------------------------------------------------

func buildPfscan(p Params, world *simos.World) *Built {
	p = p.norm()
	nfiles := 32 + 32*p.Scale
	const fileW = 2400
	const pattern = 42
	const chunk = 200

	// The program embeds the pattern count, so a build without a world
	// draws the files all the same and keeps none of them.
	rng := newRNG(p.Seed + 7)
	expected := 0
	names := make([]string, nfiles)
	for fi := 0; fi < nfiles; fi++ {
		var data []Word
		if world != nil {
			data = make([]Word, fileW)
		}
		for i := 0; i < fileW; i++ {
			v := rng.word(64)
			if v == pattern {
				expected++
			}
			if data != nil {
				data[i] = v
			}
		}
		names[fi] = fmt.Sprintf("f%03d", fi)
		if world != nil {
			world.AddFile(names[fi], data)
		}
	}

	b := asm.NewBuilder("pfscan")
	next := b.Words(0)
	total := b.Words(0)
	fail := b.Words(0)
	okCell := b.Words(0)
	// Name table: (addr, len) pairs.
	nameRefs := make([]Word, 0, 2*nfiles)
	for _, nm := range names {
		addr, ln := b.Str(nm)
		nameRefs = append(nameRefs, addr, ln)
	}
	nameTab := b.Words(nameRefs...)

	w := b.Func("worker", 1)
	{
		fi, c, t := w.Reg(), w.Reg(), w.Reg()
		one := w.Const(1)
		nextA := w.Const(next)
		failA := w.Const(fail)
		totalA := w.Const(total)
		tabA := w.Const(nameTab)
		buf := w.Reg()
		nbuf := w.Const(chunk)
		nameAddr, nameLen, fd, n, i, u, cnt := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()

		w.Sys(simos.SysAlloc, nbuf)
		w.Mov(buf, asm.RetReg)

		loop, done := w.NewLabel(), w.NewLabel()
		w.Label(loop)
		w.Fadd(fi, nextA, one)
		w.Slti(c, fi, Word(nfiles))
		w.Jz(c, done)

		w.Muli(t, fi, 2)
		w.Ldx(nameAddr, tabA, t)
		w.Addi(t, t, 1)
		w.Ldx(nameLen, tabA, t)
		w.Sys(simos.SysOpen, nameAddr, nameLen)
		w.Mov(fd, asm.RetReg)
		w.Slti(c, fd, 0)
		w.IfNz(c, func() { w.St(failA, 0, one) })

		w.Movi(cnt, 0)
		w.While(func() asm.Reg {
			w.Sys(simos.SysRead, fd, buf, nbuf)
			w.Mov(n, asm.RetReg)
			w.Snei(c, n, 0)
			return c
		}, func() {
			w.Movi(i, 0)
			w.ForLt(i, n, func() {
				w.Ldx(u, buf, i)
				w.Seqi(c, u, pattern)
				w.IfNz(c, func() { w.Addi(cnt, cnt, 1) })
			})
		})
		w.Sys(simos.SysClose, fd)
		w.Fadd(t, totalA, cnt)
		w.Jump(loop)

		w.Label(done)
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		got, c, f := m.Reg(), m.Reg(), m.Reg()
		totalA := m.Const(total)
		failA := m.Const(fail)
		m.Ld(got, totalA, 0)
		m.Seqi(c, got, Word(expected))
		m.Ld(f, failA, 0)
		m.IfNz(f, func() { m.Movi(c, 0) })
		return finish(b, m, c, okCell, world)
	}
}

// --- aget --------------------------------------------------------------------

func buildAget(p Params, world *simos.World) *Built {
	p = p.norm()
	srcW := 60000 * p.Scale
	const chunk = 160
	const latency = 250

	// The program embeds the source's checksum, so a build without a world
	// draws the source all the same and keeps none of it.
	rng := newRNG(p.Seed + 13)
	var src []Word
	if world != nil {
		src = make([]Word, srcW)
	}
	var expect Word
	for i := 0; i < srcW; i++ {
		v := rng.word(1 << 20)
		expect += v * Word(i%97+1)
		if src != nil {
			src[i] = v
		}
	}
	if world != nil {
		world.SetFetchSource(src, latency)
	}

	b := asm.NewBuilder("aget")
	dstCell := b.Words(0)
	fail := b.Words(0)
	okCell := b.Words(0)
	workers := Word(p.Workers)

	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		ln, lo, hi, i, n, c, t, dst := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		one := w.Const(1)
		failA := w.Const(fail)
		dstA := w.Const(dstCell)

		w.Ld(dst, dstA, 0)
		w.Sys(simos.SysFetchLen)
		w.Mov(ln, asm.RetReg)
		// lo = k*len/W ; hi = (k+1)*len/W
		w.Mul(t, k, ln)
		w.Divi(lo, t, workers)
		w.Addi(t, k, 1)
		w.Mul(t, t, ln)
		w.Divi(hi, t, workers)

		w.Mov(i, lo)
		w.While(func() asm.Reg { w.Slt(c, i, hi); return c }, func() {
			// n = min(chunk, hi-i)
			w.Sub(n, hi, i)
			w.Slti(c, n, chunk)
			w.IfZ(c, func() { w.Movi(n, chunk) })
			w.Add(t, dst, i)
			w.Sys(simos.SysFetch, i, n, t)
			w.Seq(c, asm.RetReg, n)
			w.IfZ(c, func() { w.St(failA, 0, one) })
			w.Add(i, i, n)
		})
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		dst, t := m.Reg(), m.Reg()
		n := m.Const(Word(srcW))
		m.Sys(simos.SysAlloc, n)
		m.Mov(dst, asm.RetReg)
		dstA := m.Const(dstCell)
		m.St(dstA, 0, dst)

		spawnJoin(m, p.Workers, "worker")

		// checksum = Σ dst[i] * (i%97+1)
		sum, i, v := m.Reg(), m.Reg(), m.Reg()
		m.Movi(sum, 0)
		m.Movi(i, 0)
		m.ForLtImm(i, Word(srcW), func() {
			m.Ldx(v, dst, i)
			m.Modi(t, i, 97)
			m.Addi(t, t, 1)
			m.Mul(v, v, t)
			m.Add(sum, sum, v)
		})
		ok := m.Reg()
		m.Seqi(ok, sum, expect)
		failed(m, m.Reg(), ok, fail)
		return finish(b, m, ok, okCell, world)
	}
}
