package workloads

import (
	"fmt"

	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// --- webserve ----------------------------------------------------------------

func buildWebserve(p Params, world *simos.World, racy bool) *Built {
	p = p.norm()
	nfiles := 8
	nconns := 40 + 40*p.Scale
	reqsPerConn := 6
	totalReqs := nconns * reqsPerConn

	names := make([]string, nfiles)
	for fi := range names {
		names[fi] = fmt.Sprintf("doc%d", fi)
	}
	if world != nil {
		fillWebserveWorld(world, p.Seed, names, nconns, reqsPerConn)
	}

	b := asm.NewBuilder("webserve")
	if racy {
		b = asm.NewBuilder("webserve-racy")
	}
	served := b.Words(0)
	bytesServed := b.Words(0)
	racyHits := b.Words(0)
	fail := b.Words(0)
	okCell := b.Words(0)
	nameRefs := make([]Word, 0, 2*nfiles)
	for _, nm := range names {
		addr, ln := b.Str(nm)
		nameRefs = append(nameRefs, addr, ln)
	}
	nameTab := b.Words(nameRefs...)
	const statsLock = 5

	w := b.Func("worker", 1)
	{
		one := w.Const(1)
		lfd := w.Const(0)
		lk := w.Const(statsLock)
		failA := w.Const(fail)
		servedA := w.Const(served)
		bytesA := w.Const(bytesServed)
		racyA := w.Const(racyHits)
		tabA := w.Const(nameTab)
		cfd, n, fi, fd, size, off, r, c, t := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		nameAddr, nameLen := w.Reg(), w.Reg()
		reqBuf, buf := w.Reg(), w.Reg()
		chunk := w.Const(96)

		w.Sys(simos.SysAlloc, w.Const(4))
		w.Mov(reqBuf, asm.RetReg)
		w.Sys(simos.SysAlloc, w.Const(400))
		w.Mov(buf, asm.RetReg)

		w.Sys(simos.SysListen)

		acceptLoop, done := w.NewLabel(), w.NewLabel()
		w.Label(acceptLoop)
		w.Sys(simos.SysAccept, lfd)
		w.Mov(cfd, asm.RetReg)
		w.Slti(c, cfd, 0)
		w.Jnz(c, done)

		// Serve every request on this connection.
		w.While(func() asm.Reg {
			w.Sys(simos.SysRecv, cfd, reqBuf, one)
			w.Mov(n, asm.RetReg)
			w.Snei(c, n, 0)
			return c
		}, func() {
			w.Ld(fi, reqBuf, 0)
			w.Muli(t, fi, 2)
			w.Ldx(nameAddr, tabA, t)
			w.Addi(t, t, 1)
			w.Ldx(nameLen, tabA, t)
			w.Sys(simos.SysOpen, nameAddr, nameLen)
			w.Mov(fd, asm.RetReg)
			w.Slti(c, fd, 0)
			w.IfNz(c, func() { w.St(failA, 0, one) })
			w.Sys(simos.SysFileSize, fd)
			w.Mov(size, asm.RetReg)
			// Read the whole file into buf.
			w.Movi(off, 0)
			w.While(func() asm.Reg {
				w.Add(t, buf, off)
				w.Sys(simos.SysRead, fd, t, chunk)
				w.Mov(r, asm.RetReg)
				w.Add(off, off, r)
				w.Snei(c, r, 0)
				return c
			}, func() {})
			w.Sys(simos.SysClose, fd)
			w.Sne(c, off, size)
			w.IfNz(c, func() { w.St(failA, 0, one) })
			// Build the response: checksum the body (models header
			// generation, encoding, etc.) before sending it.
			sum := w.Reg()
			i := w.Reg()
			v := w.Reg()
			w.Movi(sum, 0)
			w.Movi(i, 0)
			w.ForLt(i, size, func() {
				w.Ldx(v, buf, i)
				w.Xor(sum, sum, v)
				w.Shli(v, v, 3)
				w.Add(sum, sum, v)
			})
			w.Stx(buf, size, sum) // not sent; keeps the checksum live
			w.Sys(simos.SysSend, cfd, buf, size)

			if racy {
				// Intentional race: read-modify-write without the lock.
				w.Ld(t, racyA, 0)
				w.Addi(t, t, 1)
				w.St(racyA, 0, t)
			}
			w.LockR(lk)
			w.Ld(t, servedA, 0)
			w.Addi(t, t, 1)
			w.St(servedA, 0, t)
			w.Ld(t, bytesA, 0)
			w.Add(t, t, size)
			w.St(bytesA, 0, t)
			w.UnlockR(lk)
		})
		w.Jump(acceptLoop)

		w.Label(done)
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		got, c, f := m.Reg(), m.Reg(), m.Reg()
		servedA := m.Const(served)
		failA := m.Const(fail)
		m.Ld(got, servedA, 0)
		m.Seqi(c, got, Word(totalReqs))
		m.Ld(f, failA, 0)
		m.IfNz(f, func() { m.Movi(c, 0) })
		bt := finish(b, m, c, okCell, world)
		if racy {
			bt.RacyAddrs = []Word{racyHits}
		}
		return bt
	}
}

// fillWebserveWorld adds webserve's documents under names and its scripted
// clients to world: staggered arrivals, each issuing several requests with
// think time between them.
func fillWebserveWorld(world *simos.World, seed int64, names []string, nconns, reqsPerConn int) {
	rng := newRNG(seed + 21)
	for _, nm := range names {
		data := make([]Word, 80+rng.intn(240))
		for i := range data {
			data[i] = rng.word(1 << 16)
		}
		world.AddFile(nm, data)
	}
	at := int64(400)
	for c := 0; c < nconns; c++ {
		reqs := make([]simos.Request, reqsPerConn)
		rt := at
		for r := range reqs {
			reqs[r] = simos.Request{AvailAt: rt, Data: []Word{Word(rng.intn(len(names)))}}
			rt += int64(150 + rng.intn(250))
		}
		world.AddConn(at, reqs)
		at += int64(150 + rng.intn(300))
	}
}

// --- kvdb --------------------------------------------------------------------

func buildKvdb(p Params, world *simos.World) *Built {
	p = p.norm()
	const (
		buckets  = 24
		slots    = 24
		keyspace = 192
		lockBase = 1000
		walCap   = 16
	)
	opsPerWorker := 2400 * p.Scale / p.Workers

	b := asm.NewBuilder("kvdb")
	expectedSum := b.Words(0)
	fail := b.Words(0)
	okCell := b.Words(0)
	table := b.Zeros(buckets * slots * 2)

	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		one := w.Const(1)
		failA := w.Const(fail)
		expA := w.Const(expectedSum)
		tabA := w.Const(table)
		x, key, delta, bkt, lockID, base := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		s, kk, found, c, t, localSum := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()
		wal, walN := w.Reg(), w.Reg()
		op := w.Reg()
		walSink := w.Const(1)

		w.Sys(simos.SysAlloc, w.Const(walCap+2))
		w.Mov(wal, asm.RetReg)
		w.Movi(walN, 0)
		w.Movi(localSum, 0)

		// Per-worker LCG seed.
		w.Muli(x, k, 1_234_567)
		w.Addi(x, x, 987_653)

		lcg := func() {
			w.Muli(x, x, 6364136223846793005)
			w.Addi(x, x, 1442695040888963407)
		}

		w.Movi(op, 0)
		w.ForLtImm(op, Word(opsPerWorker), func() {
			lcg()
			w.Shri(t, x, 17)
			w.Andi(t, t, 0x7fffffff)
			w.Modi(key, t, keyspace)
			lcg()
			w.Andi(t, x, 0xffff)
			w.Modi(delta, t, 100)
			w.Addi(delta, delta, 1)

			w.Modi(bkt, key, buckets)
			w.Addi(lockID, bkt, lockBase)
			w.Muli(base, bkt, slots*2)
			w.Add(base, base, tabA)

			w.LockR(lockID)
			// Update existing key or insert into the first empty slot.
			w.Movi(found, 0)
			w.Movi(s, 0)
			w.ForLtImm(s, slots, func() {
				w.IfZ(found, func() {
					w.Muli(t, s, 2)
					w.Ldx(kk, base, t)
					w.Addi(c, key, 1)
					w.Seq(c, kk, c)
					w.IfNz(c, func() {
						w.Muli(t, s, 2)
						w.Addi(t, t, 1)
						w.Ldx(kk, base, t)
						w.Add(kk, kk, delta)
						w.Stx(base, t, kk)
						w.Movi(found, 1)
					})
				})
			})
			w.IfZ(found, func() {
				w.Movi(s, 0)
				w.ForLtImm(s, slots, func() {
					w.IfZ(found, func() {
						w.Muli(t, s, 2)
						w.Ldx(kk, base, t)
						w.Seqi(c, kk, 0)
						w.IfNz(c, func() {
							w.Addi(kk, key, 1)
							w.Stx(base, t, kk)
							w.Addi(t, t, 1)
							w.Stx(base, t, delta)
							w.Movi(found, 1)
						})
					})
				})
			})
			w.IfZ(found, func() { w.St(failA, 0, one) })
			w.UnlockR(lockID)

			w.Add(localSum, localSum, delta)

			// WAL append; commit the batch when full.
			w.Stx(wal, walN, key)
			w.Addi(walN, walN, 1)
			w.Stx(wal, walN, delta)
			w.Addi(walN, walN, 1)
			w.Slti(c, walN, walCap)
			w.IfZ(c, func() {
				w.Sys(simos.SysWrite, walSink, wal, walN)
				w.Movi(walN, 0)
			})
		})
		// Flush the WAL tail and publish this worker's contribution.
		w.Slti(c, walN, 1)
		w.IfZ(c, func() { w.Sys(simos.SysWrite, walSink, wal, walN) })
		w.Fadd(t, expA, localSum)
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		sum, i, v, c, t := m.Reg(), m.Reg(), m.Reg(), m.Reg(), m.Reg()
		tabA := m.Const(table)
		m.Movi(sum, 0)
		m.Movi(i, 0)
		m.ForLtImm(i, buckets*slots, func() {
			m.Muli(t, i, 2)
			m.Addi(t, t, 1)
			m.Ldx(v, tabA, t)
			m.Add(sum, sum, v)
		})
		want, f := m.Reg(), m.Reg()
		expA := m.Const(expectedSum)
		m.Ld(want, expA, 0)
		m.Seq(c, sum, want)
		failed(m, f, c, fail)
		return finish(b, m, c, okCell, world)
	}
}
