package vm_test

import (
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
)

// reloadProg builds a guest whose checkpoints hold every kind of state a
// restore rebuilds: main installs a signal handler, takes a lock and
// spawns a thread that faults, one that blocks on the lock and two that
// arrive at a three-party barrier and wait there; it then writes a few
// pages while a signal runs a long handler, arrives at the barrier itself,
// unlocks and joins the survivors.
func reloadProg() *vm.Program {
	b := asm.NewBuilder("reload")
	cell := b.Words(0)
	arr := b.Zeros(3 * 1024)
	h := b.Func("handler", 1)
	{
		base, v, i := h.Const(cell), h.Reg(), h.Reg()
		h.Movi(i, 0)
		h.ForLtImm(i, 60, func() {
			h.Ld(v, base, 0)
			h.Add(v, v, h.Arg(0))
			h.St(base, 0, v)
		})
		h.RetImm(0)
	}
	f := b.Func("faulter", 1)
	{
		x, zero := f.Reg(), f.Const(0)
		f.Div(x, f.Arg(0), zero)
		f.HaltImm(0)
	}
	w := b.Func("waiter", 1)
	{
		lk, base, one, v := w.Const(5), w.Const(cell), w.Const(1), w.Reg()
		w.LockR(lk)
		w.Fadd(v, base, one)
		w.UnlockR(lk)
		w.HaltImm(0)
	}
	a := b.Func("arriver", 1)
	{
		id, n, base, one, v := a.Const(9), a.Const(3), a.Const(cell), a.Const(1), a.Reg()
		a.Barrier(id, n)
		a.Fadd(v, base, one)
		a.HaltImm(0)
	}
	m := b.Func("main", 0)
	{
		m.SigHandler("handler")
		lk, arg := m.Const(5), m.Const(7)
		m.LockR(lk)
		tids := m.Regs(4)
		for k, fn := range []string{"faulter", "waiter", "arriver", "arriver"} {
			m.Spawn(tids[k], fn, arg)
		}
		base, stride, i, v := m.Const(arr), m.Const(512), m.Reg(), m.Reg()
		m.Movi(i, 0)
		m.ForLtImm(i, 6, func() {
			m.Mul(v, i, stride)
			m.Stx(base, v, i)
			m.Stx(base, v, stride)
		})
		id, n := m.Const(9), m.Const(3)
		m.Barrier(id, n)
		m.UnlockR(lk)
		for _, t := range tids[1:] {
			m.Join(t)
		}
		m.Ld(v, m.Const(cell), 0)
		m.Halt(v)
	}
	b.SetEntry("main")
	return b.MustBuild()
}

// reloadCheckpoints runs reloadProg round-robin and checkpoints it twice:
// once right after main took its lock, with one thread, and once with
// main inside its signal handler, holding the lock, one thread faulted,
// one blocked on the lock and two waiting at the barrier they arrived at.
func reloadCheckpoints(t *testing.T, prog *vm.Program) (early, rich *vm.Checkpoint) {
	t.Helper()
	m := vm.NewMachine(prog, nil, nil)
	due := func(th *vm.Thread) (vm.Word, bool) { return 3, th.ID == 0 && th.Retired == 20 }
	for steps := 0; rich == nil; steps++ {
		if steps > 10_000 {
			t.Fatalf("never reached the rich checkpoint:\n%s", m.DescribeState())
		}
		for _, th := range m.Threads {
			if th.Status.Live() {
				attempt(m, th, due)
			}
		}
		main := m.Threads[0]
		switch {
		case early == nil && len(m.Locks) == 1:
			early = m.Checkpoint()
		case len(m.Threads) == 5 && len(main.Frames) == 1 && main.Frames[0].Signal && main.Retired > 60:
			rich = m.Checkpoint()
		}
	}
	st := m.Threads
	if len(early.Threads) != 1 || m.FaultCount() != 1 || st[2].Status != vm.BlockedLock ||
		!st[3].Status.Blocked() || !st[4].Status.Blocked() || len(rich.Locks) != 1 ||
		rich.Barriers[9] != (vm.BarrierState{Arrived: 2}) {
		t.Fatalf("checkpoints lack the state they are for: %d early threads, barrier %+v\n%s",
			len(early.Threads), rich.Barriers[9], m.DescribeState())
	}
	return early, rich
}

// TestReloadMatchesRestore holds Machine.Reload to Checkpoint.Restore: a
// machine that just ran from one checkpoint — hooks set, Now advanced,
// diverged — is released and reloaded from another, and must equal a
// fresh restore of that checkpoint in every field, then run with it to
// the same end state. Reloads go from one thread to five and back, under
// a changed cost model and an unchanged one.
func TestReloadMatchesRestore(t *testing.T) {
	prog := reloadProg()
	early, rich := reloadCheckpoints(t, prog)
	costs, dear := vm.DefaultCosts(), vm.DefaultCosts()
	dear.Mem, dear.Sync = 5, 20
	for _, c := range []struct {
		name          string
		ran, reloaded *vm.Checkpoint
		cost          *vm.CostModel
	}{
		{"one thread to five", early, rich, costs},
		{"five threads to one, new costs", rich, early, dear},
		{"five threads to five", rich, rich, costs},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.ran.Restore(prog, nil, costs)
			m.Hooks.OnSync = func(vm.SyncEvent) {}
			m.Hooks.OnRetire = func(*vm.Thread, int, int64) {}
			runSignals(t, m, func(th *vm.Thread) (vm.Word, bool) { return 4, th.Retired == 90 })
			m.Now, m.Diverged = 12345, "diverged"
			m.Mem.Release()
			m.Reload(c.reloaded, prog, nil, c.cost)

			want := c.reloaded.Restore(prog, nil, c.cost)
			if d := vm.DiffMachines(m, want); d != "" {
				t.Fatalf("reloaded machine differs from a restore: %s", d)
			}
			if m.StateHash() != c.reloaded.Hash() {
				t.Fatal("reloaded machine does not hash as its checkpoint")
			}
			run(t, m)
			run(t, want)
			if d := vm.DiffMachines(m, want); d != "" {
				t.Fatalf("after running to the end: %s", d)
			}
			if m.StateHash() != want.StateHash() {
				t.Fatalf("end hashes differ: %016x, %016x", m.StateHash(), want.StateHash())
			}
		})
	}
}

// TestReloadAllocatesNothing is the allocation guard of a warm reload: a
// machine that has held the checkpoint's threads, locks, barriers and
// pages reloads it again without allocating, and StateHash, with a lock
// held and a barrier mid-generation, allocates nothing either.
func TestReloadAllocatesNothing(t *testing.T) {
	if vm.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	prog := reloadProg()
	_, rich := reloadCheckpoints(t, prog)
	costs := vm.DefaultCosts()
	m := rich.Restore(prog, nil, costs)
	run(t, m)
	if n := testing.AllocsPerRun(50, func() {
		m.Mem.Release()
		m.Reload(rich, prog, nil, costs)
	}); n != 0 {
		t.Fatalf("a warm reload made %v allocations", n)
	}
	if n := testing.AllocsPerRun(50, func() { m.StateHash() }); n != 0 {
		t.Fatalf("StateHash made %v allocations", n)
	}
}
