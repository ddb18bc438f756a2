// Quickstart: author a small multithreaded guest program against the
// public API, record it with uniparallelism, and replay it twice — once
// sequentially, once epoch-parallel — verifying that both reproduce the
// recorded execution exactly.
package main

import (
	"context"
	"fmt"
	"log"

	"doubleplay"
	"doubleplay/internal/simos"
)

// buildProgram constructs a guest with worker threads that cooperatively
// sum the squares 1..n, claiming chunks of the range from an atomic counter
// and flushing a local accumulator under a lock once per chunk. (Batching
// matters under DoublePlay just as it does on real hardware: every
// interleaved lock or atomic operation forces the epoch-parallel execution
// to switch threads to honour the recorded order, so a program that
// synchronises every few instructions records slowly — and one that
// batches records at a few percent overhead.)
func buildProgram(workers, n int) (*doubleplay.Program, int64) {
	const chunk = 512
	b := doubleplay.NewProgram("sum-squares")
	next := b.Words(1) // work counter: next value to square
	total := b.Words(0)
	okCell := b.Words(0)

	w := b.Func("worker", 1)
	{
		chunkR := w.Const(chunk)
		lk := w.Const(9)
		one := w.Const(1)
		nextA := w.Const(next)
		totalA := w.Const(total)
		v, end, sq, c, t, local := w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg(), w.Reg()

		loop, done := w.NewLabel(), w.NewLabel()
		w.Label(loop)
		w.Fadd(v, nextA, chunkR) // claim [v, v+chunk) atomically
		w.Slei(c, v, int64(n))
		w.Jz(c, done)
		w.Add(end, v, chunkR)
		w.Slei(c, end, int64(n))
		w.IfZ(c, func() { w.Movi(end, int64(n)+1) })
		w.Movi(local, 0)
		w.While(func() doubleplay.Reg { w.Slt(c, v, end); return c }, func() {
			w.Mul(sq, v, v)
			w.Add(local, local, sq)
			w.Addi(v, v, 1)
		})
		w.LockR(lk)
		w.Ld(t, totalA, 0)
		w.Add(t, t, local)
		w.St(totalA, 0, t)
		w.UnlockR(lk)
		// Tell the world about our progress once per chunk.
		w.Sys(simos.SysPrint, nextA, one)
		w.Jump(loop)
		w.Label(done)
		w.HaltImm(0)
	}

	m := b.Func("main", 0)
	{
		tids := m.Regs(workers)
		zero := m.Const(0)
		for k := 0; k < workers; k++ {
			m.Spawn(tids[k], "worker", zero)
		}
		for k := 0; k < workers; k++ {
			m.Join(tids[k])
		}
		want := int64(n) * int64(n+1) * int64(2*n+1) / 6
		got, ok := m.Reg(), m.Reg()
		totalA := m.Const(total)
		m.Ld(got, totalA, 0)
		m.Seqi(ok, got, want)
		okA := m.Const(okCell)
		m.St(okA, 0, ok)
		m.HaltImm(0)
	}
	b.SetEntry("main")
	return b.MustBuild(), okCell
}

func main() {
	// Big enough to span tens of epochs — uniparallelism's overhead is a
	// steady-state property, so very short programs see mostly pipeline
	// fill and drain.
	const workers, n = 3, 300000
	prog, okCell := buildProgram(workers, n)

	// Native baseline: how long does the program take with no recording?
	nat, err := doubleplay.RunNative(prog, doubleplay.NewWorld(1), workers, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native:   %8d cycles, %d instructions\n", nat.Cycles, nat.Retired)

	// Uniparallel recording with spare cores.
	res, err := doubleplay.Record(prog, doubleplay.NewWorld(1), doubleplay.RecordOptions{
		Workers:   workers,
		SpareCPUs: workers,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := res.Stats
	fmt.Printf("recorded: %8d cycles (%.1f%% overhead), %d epochs, %d bytes of replay log\n",
		s.CompletionCycles,
		(float64(s.CompletionCycles)/float64(nat.Cycles)-1)*100,
		s.Epochs, s.ReplayBytes)

	// The guest's own verdict, read from the final checkpoint.
	last := res.Boundaries[len(res.Boundaries)-1]
	fmt.Printf("guest self-check: %v (ok cell = %d)\n",
		last.CP.MemSnap.Peek(okCell) == 1, last.CP.MemSnap.Peek(okCell))

	// Replay the log both ways.
	seq, err := doubleplay.Replay(context.Background(), prog, res.Recording, doubleplay.ReplayOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential replay:     %8d cycles, final hash %016x\n", seq.Cycles, seq.FinalHash)

	par, err := doubleplay.Replay(context.Background(), prog, res.Recording,
		doubleplay.ReplayOptions{Boundaries: res.Boundaries, CPUs: workers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch-parallel replay: %8d cycles — same execution, %dx fewer wall cycles\n",
		par.Cycles, seq.Cycles/max(par.Cycles, 1))
}

func max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
