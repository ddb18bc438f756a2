package workloads

import (
	"doubleplay/internal/asm"
	"doubleplay/internal/simos"
)

// buildSigping runs compute workers that are periodically interrupted by
// scripted signals. Each delivery runs a handler that adds the signal
// number into a per-thread tally (lock-free: one cell per thread). The
// self-check requires every scripted signal to have been delivered and
// billed exactly once — which only holds if recording and replay agree on
// delivery points.
func buildSigping(p Params, world *simos.World) *Built {
	p = p.norm()
	iters := 40_000 * p.Scale
	const sigsPerWorker = 12

	var expect Word
	for k := 0; k < p.Workers; k++ {
		tid := k + 1 // spawn order: workers get tids 1..W
		at := int64(900 + 400*k)
		for s := 0; s < sigsPerWorker; s++ {
			sig := Word(1 + (k+s)%7)
			if world != nil {
				world.AddSignal(at, tid, sig)
			}
			expect += sig
			at += int64(1100 + 230*s)
		}
	}

	b := asm.NewBuilder("sigping")
	okCell := b.Words(0)
	tally := b.Zeros(p.Workers + 1) // indexed by tid
	sink := b.Words(0)

	h := b.Func("handler", 1)
	{
		sig := h.Arg(0)
		tid, t := h.Reg(), h.Reg()
		tallyA := h.Const(tally)
		h.Tid(tid)
		h.Ldx(t, tallyA, tid)
		h.Add(t, t, sig)
		h.Stx(tallyA, tid, t)
		h.RetImm(0)
	}

	w := b.Func("worker", 1)
	{
		i, acc := w.Reg(), w.Reg()
		w.SigHandler("handler")
		w.Movi(acc, 1)
		w.Movi(i, 0)
		// Compute loop the signals interrupt: a running product the
		// handler must not disturb.
		w.ForLtImm(i, Word(iters), func() {
			w.Muli(acc, acc, 1_103_515_245)
			w.Addi(acc, acc, 12_345)
		})
		// Publish the compute result so corruption would be caught.
		sinkA := w.Const(sink)
		t := w.Reg()
		w.Fadd(t, sinkA, acc)
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		spawnJoin(m, p.Workers, "worker")
		sum, i, v, c := m.Reg(), m.Reg(), m.Reg(), m.Reg()
		tallyA := m.Const(tally)
		m.Movi(sum, 0)
		m.Movi(i, 0)
		m.ForLtImm(i, Word(p.Workers+1), func() {
			m.Ldx(v, tallyA, i)
			m.Add(sum, sum, v)
		})
		m.Seqi(c, sum, expect)
		return finish(b, m, c, okCell, world)
	}
}
