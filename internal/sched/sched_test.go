package sched_test

import (
	"errors"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/dplog"
	"doubleplay/internal/sched"
	"doubleplay/internal/vm"
)

// counterProg builds a program with workers incrementing a shared counter
// (locked when locked is true) iters times each.
func counterProg(workers, iters int, locked bool) *vm.Program {
	b := asm.NewBuilder("counter")
	cell := b.Words(0)
	w := b.Func("worker", 1)
	{
		base, v, i := w.Const(cell), w.Reg(), w.Reg()
		lk := w.Const(3)
		w.Movi(i, 0)
		w.ForLtImm(i, vm.Word(iters), func() {
			if locked {
				w.LockR(lk)
			}
			w.Ld(v, base, 0)
			w.Addi(v, v, 1)
			w.St(base, 0, v)
			if locked {
				w.UnlockR(lk)
			}
		})
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	{
		ts := m.Regs(workers)
		a := m.Reg()
		m.Movi(a, 0)
		for k := 0; k < workers; k++ {
			m.Spawn(ts[k], "worker", a)
		}
		for k := 0; k < workers; k++ {
			m.Join(ts[k])
		}
		got := m.Reg()
		base := m.Const(cell)
		m.Ld(got, base, 0)
		m.Halt(got)
	}
	b.SetEntry("main")
	return b.MustBuild()
}

func TestParallelDeterministicPerSeed(t *testing.T) {
	prog := counterProg(3, 500, false) // racy: outcome depends on interleaving
	runOnce := func(seed int64) (uint64, int64) {
		m := vm.NewMachine(prog, nil, nil)
		p := sched.NewParallel(m, 3, seed)
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return m.StateHash(), p.WallTime()
	}
	h1, w1 := runOnce(42)
	h2, w2 := runOnce(42)
	if h1 != h2 || w1 != w2 {
		t.Fatal("same seed produced different executions")
	}
	// Racy program under different seeds should (almost certainly) differ.
	diff := false
	for s := int64(0); s < 8; s++ {
		if h, _ := runOnce(s); h != h1 {
			diff = true
			break
		}
	}
	if !diff {
		t.Log("note: racy program produced identical results across seeds")
	}
}

func TestParallelCorrectWithLocks(t *testing.T) {
	prog := counterProg(4, 300, true)
	m := vm.NewMachine(prog, nil, nil)
	p := sched.NewParallel(m, 4, 7)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Threads[0].ExitVal; got != 1200 {
		t.Fatalf("locked counter = %d, want 1200", got)
	}
	if p.Retired() == 0 || p.WallTime() == 0 {
		t.Fatal("no work accounted")
	}
}

func TestParallelSpeedup(t *testing.T) {
	prog := counterProg(4, 400, true)
	wall := func(cpus int) int64 {
		m := vm.NewMachine(prog, nil, nil)
		p := sched.NewParallel(m, cpus, 7)
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return p.WallTime()
	}
	w1, w4 := wall(1), wall(4)
	if w4 >= w1 {
		t.Fatalf("no speedup: 1 cpu %d cycles, 4 cpus %d cycles", w1, w4)
	}
}

func TestParallelDeadlockDetected(t *testing.T) {
	// Classic ABBA deadlock.
	b := asm.NewBuilder("abba")
	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		l1, l2, c := w.Reg(), w.Reg(), w.Reg()
		spin := w.Reg()
		w.Seqi(c, k, 0)
		w.IfElse(c,
			func() { w.Movi(l1, 1); w.Movi(l2, 2) },
			func() { w.Movi(l1, 2); w.Movi(l2, 1) },
		)
		w.LockR(l1)
		// Spin long enough that both threads hold their first lock.
		w.Movi(spin, 0)
		w.ForLtImm(spin, 500, func() {})
		w.LockR(l2)
		w.UnlockR(l2)
		w.UnlockR(l1)
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	{
		t1, t2, a := m.Reg(), m.Reg(), m.Reg()
		m.Movi(a, 0)
		m.Spawn(t1, "worker", a)
		m.Movi(a, 1)
		m.Spawn(t2, "worker", a)
		m.Join(t1)
		m.Join(t2)
		m.HaltImm(0)
	}
	b.SetEntry("main")
	mach := vm.NewMachine(b.MustBuild(), nil, nil)
	p := sched.NewParallel(mach, 2, 1)
	err := p.Run()
	if !errors.Is(err, sched.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestParallelRunUntilStopsAtLimit(t *testing.T) {
	prog := counterProg(2, 2000, true)
	m := vm.NewMachine(prog, nil, nil)
	p := sched.NewParallel(m, 2, 1)
	if err := p.RunUntil(5000); err != nil {
		t.Fatal(err)
	}
	if m.Done() {
		t.Fatal("program finished within the limit; enlarge it")
	}
	if now := p.Now(); now < 5000 || now > 7000 {
		t.Fatalf("frontier = %d, want just past 5000", now)
	}
	// Resume to completion.
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Threads[0].ExitVal; got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
}

func TestParallelAddCostAndBaseClock(t *testing.T) {
	prog := counterProg(3, 300, false) // racy: the outcome depends on the jitter stream
	m := vm.NewMachine(prog, nil, nil)
	p := sched.NewParallel(m, 2, 1)
	p.AddCost(10_000)
	if p.Now() < 10_000 {
		t.Fatal("AddCost did not advance clocks")
	}
	if err := p.RunUntil(12_000); err != nil {
		t.Fatal(err)
	}

	// Resume on a fresh machine at clock c is a new scheduler whose clocks
	// all stand at c: nothing of the run so far may show, except in the
	// counts of work done.
	before := p.Retired()
	m = vm.NewMachine(prog, nil, nil)
	p.Resume(m, 9, 50_000)
	if p.Now() != 50_000 || p.WallTime() != 50_000 {
		t.Fatalf("resumed at [%d, %d], want 50000", p.Now(), p.WallTime())
	}
	ref := vm.NewMachine(prog, nil, nil)
	fresh := sched.NewParallel(ref, 2, 9)
	fresh.AddCost(50_000)
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.WallTime() != fresh.WallTime() || m.StateHash() != ref.StateHash() {
		t.Fatalf("resumed run ended at %d in state %016x, a new scheduler at %d in %016x",
			p.WallTime(), m.StateHash(), fresh.WallTime(), ref.StateHash())
	}
	if p.Retired() != before+fresh.Retired() {
		t.Fatalf("retired %d, want %d before Resume + %d after", p.Retired(), before, fresh.Retired())
	}
}

func TestUniScheduleLogReplays(t *testing.T) {
	prog := counterProg(3, 400, false) // even racy programs replay exactly
	m1 := vm.NewMachine(prog, nil, nil)
	u1 := sched.NewUni(m1)
	u1.LogSchedule = true
	if err := u1.Run(); err != nil {
		t.Fatal(err)
	}
	h1 := m1.StateHash()
	if len(u1.Log) == 0 {
		t.Fatal("no schedule logged")
	}

	m2 := vm.NewMachine(prog, nil, nil)
	u2 := sched.NewUni(m2)
	u2.Follow = u1.Log
	if err := u2.Run(); err != nil {
		t.Fatal(err)
	}
	if m2.StateHash() != h1 {
		t.Fatal("schedule replay produced a different state")
	}
}

func TestUniQuantumBoundsSlices(t *testing.T) {
	prog := counterProg(2, 500, false)
	m := vm.NewMachine(prog, nil, nil)
	u := sched.NewUni(m)
	u.Quantum = 100
	u.LogSchedule = true
	if err := u.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range u.Log {
		// Merged slices of the same thread can exceed one quantum only when
		// no other thread was runnable; bound generously.
		if s.N == 0 {
			t.Fatalf("slice %d is empty", i)
		}
	}
	if u.Switches < 5 {
		t.Fatalf("too few switches: %d", u.Switches)
	}
}

func TestUniTargetsStopExactly(t *testing.T) {
	prog := counterProg(2, 300, true)
	// Targets must name a consistent execution point; derive them from a
	// real mid-run snapshot rather than arbitrary per-thread cuts.
	mHalf := vm.NewMachine(prog, nil, nil)
	uHalf := sched.NewUni(mHalf)
	uHalf.TotalBudget = 1500
	if err := uHalf.Run(); err != nil {
		t.Fatal(err)
	}
	if mHalf.Done() {
		t.Fatal("budget run finished; enlarge the program")
	}
	targets := make([]uint64, len(mHalf.Threads))
	for i, th := range mHalf.Threads {
		targets[i] = th.Retired
	}
	m := vm.NewMachine(prog, nil, nil)
	u := sched.NewUni(m)
	u.Targets = targets
	if err := u.Run(); err != nil {
		t.Fatal(err)
	}
	for i, th := range m.Threads {
		if th.Retired != targets[i] {
			t.Fatalf("thread %d retired %d, target %d", i, th.Retired, targets[i])
		}
	}
}

// TestUniTargetsStopMidSlice: a target that falls inside what would be
// one long timeslice still stops the thread on the instruction. The
// targets come from a run with a small quantum; the run held to them has
// the default one, so each worker reaches its target mid-slice — through
// the slice loop, and through the per-instruction path alike.
func TestUniTargetsStopMidSlice(t *testing.T) {
	prog := counterProg(2, 300, false) // no locks: any cut is reachable
	mHalf := vm.NewMachine(prog, nil, nil)
	uHalf := sched.NewUni(mHalf)
	uHalf.Quantum, uHalf.TotalBudget = 37, 1500
	if err := uHalf.Run(); err != nil {
		t.Fatal(err)
	}
	targets := make([]uint64, len(mHalf.Threads))
	for i, th := range mHalf.Threads {
		targets[i] = th.Retired
	}
	for _, reference := range []bool{false, true} {
		m := vm.NewMachine(prog, nil, nil)
		if reference {
			m.Hooks.OnRetire = func(*vm.Thread, int, int64) {}
		}
		u := sched.NewUni(m)
		u.Targets = targets
		if err := u.Run(); err != nil {
			t.Fatalf("reference=%v: %v", reference, err)
		}
		for i, th := range m.Threads {
			if th.Retired != targets[i] || !th.Status.Live() {
				t.Fatalf("reference=%v: thread %d retired %d (%s), target %d", reference, i, th.Retired, th.Status, targets[i])
			}
		}
		if (u.LoopRetired == 0) != reference {
			t.Fatalf("reference=%v: %d instructions in the slice loop", reference, u.LoopRetired)
		}
	}
}

func TestUniCorruptLogDetected(t *testing.T) {
	prog := counterProg(2, 200, true)
	m1 := vm.NewMachine(prog, nil, nil)
	u1 := sched.NewUni(m1)
	u1.LogSchedule = true
	if err := u1.Run(); err != nil {
		t.Fatal(err)
	}

	corrupt := append([]dplog.Slice(nil), u1.Log...)
	corrupt[len(corrupt)/2].N += 3 // claim extra instructions mid-log

	m2 := vm.NewMachine(prog, nil, nil)
	u2 := sched.NewUni(m2)
	u2.Follow = corrupt
	err := u2.Run()
	if err == nil {
		t.Fatal("corrupted schedule replayed cleanly")
	}
}

func TestUniTotalBudget(t *testing.T) {
	prog := counterProg(2, 5000, true)
	m := vm.NewMachine(prog, nil, nil)
	u := sched.NewUni(m)
	u.TotalBudget = 1000
	if err := u.Run(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, th := range m.Threads {
		total += th.Retired
	}
	if total < 1000 || total > 1000+uint64(u.Quantum) {
		t.Fatalf("retired %d, want ~1000", total)
	}
}

func TestUniGuestDeadlockReported(t *testing.T) {
	b := asm.NewBuilder("selfjoin")
	mn := b.Func("main", 0)
	lk := mn.Const(1)
	mn.LockR(lk)
	mn.LockR(lk) // recursive lock faults the only thread...
	mn.HaltImm(0)
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	u := sched.NewUni(m)
	// Faulted-out machine simply finishes (Done) — no error, one fault.
	if err := u.Run(); err != nil {
		t.Fatal(err)
	}
	if m.FaultCount() != 1 {
		t.Fatal("expected a fault")
	}
}

// TestUniAdvanceMatchesRun pins the resumable entry: a run paused every n
// retirements makes the scheduling decisions, logs the schedule and
// charges the cycles of one uninterrupted Run — in logging mode (quantum
// expiry, lock hand-offs, budget) and when following the logged schedule.
func TestUniAdvanceMatchesRun(t *testing.T) {
	prog := counterProg(3, 400, true)
	drain := func(u *sched.Uni, n uint64) {
		t.Helper()
		for {
			before := u.Retired()
			done, err := u.Advance(n)
			if err != nil {
				t.Fatal(err)
			}
			if got := u.Retired() - before; got > n {
				t.Fatalf("Advance(%d) retired %d", n, got)
			}
			if done {
				return
			}
		}
	}
	same := func(mode string, n uint64, m, mRef *vm.Machine, u, ref *sched.Uni) {
		t.Helper()
		if m.StateHash() != mRef.StateHash() || u.Cycles != ref.Cycles || u.Switches != ref.Switches {
			t.Fatalf("%s, Advance(%d): hash/cycles/switches %016x/%d/%d, Run gives %016x/%d/%d", mode, n,
				m.StateHash(), u.Cycles, u.Switches, mRef.StateHash(), ref.Cycles, ref.Switches)
		}
		if len(u.Log) != len(ref.Log) {
			t.Fatalf("%s, Advance(%d): logged %d slices, Run logs %d", mode, n, len(u.Log), len(ref.Log))
		}
		for i := range ref.Log {
			if u.Log[i] != ref.Log[i] {
				t.Fatalf("%s, Advance(%d): slice %d = %+v, Run logs %+v", mode, n, i, u.Log[i], ref.Log[i])
			}
		}
	}
	newFree := func() (*vm.Machine, *sched.Uni) {
		m := vm.NewMachine(prog, nil, nil)
		u := sched.NewUni(m)
		u.Quantum = 64
		u.LogSchedule = true
		u.TotalBudget = 3000
		return m, u
	}
	mRef, ref := newFree()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if mRef.Done() || len(ref.Log) < 10 {
		t.Fatalf("reference run: done=%v, %d slices; want a budget stop after many slices", mRef.Done(), len(ref.Log))
	}
	targets := make([]uint64, len(mRef.Threads))
	for i, th := range mRef.Threads {
		targets[i] = th.Retired
	}
	newFollow := func() (*vm.Machine, *sched.Uni) {
		m := vm.NewMachine(prog, nil, nil)
		u := sched.NewUni(m)
		u.Follow, u.Targets = ref.Log, targets
		return m, u
	}
	mFol, fol := newFollow()
	if err := fol.Run(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{1, 7, 64, 1000} {
		m, u := newFree()
		drain(u, n)
		same("free", n, m, mRef, u, ref)
		m, u = newFollow()
		drain(u, n)
		same("follow", n, m, mFol, u, fol)
	}
}
