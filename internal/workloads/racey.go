package workloads

import (
	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// buildRacey hammers shared state without synchronisation so that the
// thread-parallel and epoch-parallel executions frequently disagree —
// the workload behind the divergence/forward-recovery experiments. It has
// no meaningful self-check (the result is inherently nondeterministic);
// the OK cell reports only that all threads finished.
func buildRacey(p Params, world *simos.World) *Built {
	p = p.norm()
	iters := 2500 * p.Scale
	const cells = 64

	b := asm.NewBuilder("racey")
	okCell := b.Words(0)
	counter := b.Words(0)
	lockedCounter := b.Words(0)
	arr := b.Zeros(cells)
	doneCtr := b.Words(0)

	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		one := w.Const(1)
		lk := w.Const(3)
		ctrA := w.Const(counter)
		lctrA := w.Const(lockedCounter)
		arrA := w.Const(arr)
		doneA := w.Const(doneCtr)
		i, t, x, idx, c := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()

		// Per-worker LCG for cell selection.
		w.Muli(x, k, 2_654_435_761)
		w.Addi(x, x, 40_503)

		w.Movi(i, 0)
		w.ForLtImm(i, Word(iters), func() {
			// Racy increment of the hot counter.
			w.Ld(t, ctrA, 0)
			w.Addi(t, t, 1)
			w.St(ctrA, 0, t)

			// Racy read-modify-write of a pseudorandom cell.
			w.Muli(x, x, 6364136223846793005)
			w.Addi(x, x, 1442695040888963407)
			w.Shri(idx, x, 33)
			w.Andi(idx, idx, cells-1)
			w.Ldx(t, arrA, idx)
			w.Add(t, t, x)
			w.Stx(arrA, idx, t)

			// Locked work interleaved, every 8th iteration.
			w.Andi(c, i, 7)
			w.Seqi(c, c, 0)
			w.IfNz(c, func() {
				w.LockR(lk)
				w.Ld(t, lctrA, 0)
				w.Addi(t, t, 1)
				w.St(lctrA, 0, t)
				w.UnlockR(lk)
			})
		})
		w.Fadd(t, doneA, one)
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		got, c := m.Reg(), m.Reg()
		doneA := m.Const(doneCtr)
		m.Ld(got, doneA, 0)
		m.Seqi(c, got, Word(p.Workers))
		bt := finish(b, m, c, okCell, world)
		bt.RacyAddrs = []Word{counter, arr, arr + cells - 1}
		return bt
	}
}
