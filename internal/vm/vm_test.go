package vm_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
)

// run drives a machine round-robin until every thread terminates, failing
// the test on deadlock/livelock. Blocked threads are re-attempted every
// round, matching the schedulers' retry semantics.
func run(t *testing.T, m *vm.Machine) { runSignals(t, m, nil) }

// runSignals is run delivering the signals due names (see attempt).
func runSignals(t *testing.T, m *vm.Machine, due signals) {
	t.Helper()
	idle := 0
	for steps := 0; !m.Done(); steps++ {
		if steps > 5_000_000 {
			t.Fatalf("livelock:\n%s", m.DescribeState())
		}
		progressed := false
		for _, th := range m.Threads {
			if th.Status.Live() {
				if res := attempt(m, th, due); res.Retired {
					progressed = true
				}
			}
		}
		if progressed {
			idle = 0
			continue
		}
		idle++
		if idle > 16 && !m.Done() {
			t.Fatalf("deadlock:\n%s", m.DescribeState())
		}
	}
}

// exec builds and runs a single-function program, returning the machine.
func exec(t *testing.T, build func(f *asm.Func)) *vm.Machine {
	t.Helper()
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	build(f)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(prog, nil, nil)
	run(t, m)
	return m
}

func TestArithmeticOpsMatchGo(t *testing.T) {
	type binOp struct {
		name string
		emit func(f *asm.Func, d, a, b asm.Reg)
		eval func(a, b int64) int64
	}
	ops := []binOp{
		{"add", (*asm.Func).Add, func(a, b int64) int64 { return a + b }},
		{"sub", (*asm.Func).Sub, func(a, b int64) int64 { return a - b }},
		{"mul", (*asm.Func).Mul, func(a, b int64) int64 { return a * b }},
		{"and", (*asm.Func).And, func(a, b int64) int64 { return a & b }},
		{"or", (*asm.Func).Or, func(a, b int64) int64 { return a | b }},
		{"xor", (*asm.Func).Xor, func(a, b int64) int64 { return a ^ b }},
		{"slt", (*asm.Func).Slt, func(a, b int64) int64 { return b2i(a < b) }},
		{"sle", (*asm.Func).Sle, func(a, b int64) int64 { return b2i(a <= b) }},
		{"seq", (*asm.Func).Seq, func(a, b int64) int64 { return b2i(a == b) }},
		{"sne", (*asm.Func).Sne, func(a, b int64) int64 { return b2i(a != b) }},
	}
	rng := rand.New(rand.NewSource(1))
	for _, op := range ops {
		op := op
		t.Run(op.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				a, b := rng.Int63()-rng.Int63(), rng.Int63()-rng.Int63()
				m := exec(t, func(f *asm.Func) {
					ra, rb, rd := f.Reg(), f.Reg(), f.Reg()
					f.Movi(ra, a)
					f.Movi(rb, b)
					op.emit(f, rd, ra, rb)
					f.Halt(rd)
				})
				if got := m.Threads[0].ExitVal; got != op.eval(a, b) {
					t.Fatalf("%s(%d,%d) = %d, want %d", op.name, a, b, got, op.eval(a, b))
				}
			}
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestDivModSemantics(t *testing.T) {
	m := exec(t, func(f *asm.Func) {
		a, b, d, e := f.Reg(), f.Reg(), f.Reg(), f.Reg()
		f.Movi(a, -17)
		f.Movi(b, 5)
		f.Div(d, a, b)
		f.Mod(e, a, b)
		f.Mul(d, d, b)
		f.Add(d, d, e) // d/b*b + d%b == d
		f.Halt(d)
	})
	if got := m.Threads[0].ExitVal; got != -17 {
		t.Fatalf("div/mod identity broken: %d", got)
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	m := exec(t, func(f *asm.Func) {
		a, z, d := f.Reg(), f.Reg(), f.Reg()
		f.Movi(a, 5)
		f.Movi(z, 0)
		f.Div(d, a, z)
		f.Halt(d)
	})
	if m.FaultCount() != 1 {
		t.Fatalf("expected divide fault, got %d faults", m.FaultCount())
	}
	if !strings.Contains(m.Faults()[0], "divide") {
		t.Fatalf("fault message: %v", m.Faults())
	}
}

func TestShiftsAndImmediates(t *testing.T) {
	m := exec(t, func(f *asm.Func) {
		a, d := f.Reg(), f.Reg()
		f.Movi(a, -64)
		f.Shri(d, a, 3) // arithmetic: -8
		f.Addi(d, d, 8) // 0
		f.Shli(a, a, 1) // -128
		f.Sub(d, d, a)  // 128
		f.Modi(d, d, 100)
		f.Muli(d, d, 3)
		f.Halt(d) // (128 % 100) * 3 = 84
	})
	if got := m.Threads[0].ExitVal; got != 84 {
		t.Fatalf("got %d, want 84", got)
	}
}

func TestCallRetConvention(t *testing.T) {
	b := asm.NewBuilder("t")
	callee := b.Func("addmul", 3)
	{
		x, y, z := callee.Arg(0), callee.Arg(1), callee.Arg(2)
		r := callee.Reg()
		callee.Mul(r, x, y)
		callee.Add(r, r, z)
		callee.Ret(r)
	}
	main := b.Func("main", 0)
	{
		a, bb, c, keep := main.Reg(), main.Reg(), main.Reg(), main.Reg()
		main.Movi(a, 6)
		main.Movi(bb, 7)
		main.Movi(c, 8)
		main.Movi(keep, 1000)
		main.Call("addmul", a, bb, c)
		// Callers' registers — including keep — must survive the call.
		main.Add(keep, keep, asm.RetReg)
		main.Halt(keep) // 1000 + 6*7+8 = 1050
	}
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	run(t, m)
	if got := m.Threads[0].ExitVal; got != 1050 {
		t.Fatalf("call result %d, want 1050", got)
	}
}

func TestNestedCallsPreserveArguments(t *testing.T) {
	// g(x) calls h(x+1); g must still see its own x afterwards — this is
	// the regression test for the staging-register ABI.
	b := asm.NewBuilder("t")
	h := b.Func("h", 1)
	{
		x := h.Arg(0)
		h.Addi(x, x, 100)
		h.Ret(x)
	}
	g := b.Func("g", 1)
	{
		x, t1 := g.Arg(0), g.Reg()
		g.Addi(t1, x, 1)
		g.Call("h", t1)
		g.Add(t1, asm.RetReg, x) // x must be intact here
		g.Ret(t1)
	}
	main := b.Func("main", 0)
	{
		a := main.Reg()
		main.Movi(a, 5)
		main.Call("g", a)
		main.Halt(asm.RetReg) // h(6)=106; 106+5 = 111
	}
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	run(t, m)
	if got := m.Threads[0].ExitVal; got != 111 {
		t.Fatalf("got %d, want 111", got)
	}
}

func TestCallStackOverflowFaults(t *testing.T) {
	b := asm.NewBuilder("t")
	rec := b.Func("rec", 0)
	rec.Call("rec")
	rec.RetImm(0)
	main := b.Func("main", 0)
	main.Call("rec")
	main.HaltImm(0)
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	run(t, m)
	if m.FaultCount() != 1 || !strings.Contains(m.Faults()[0], "overflow") {
		t.Fatalf("expected stack overflow fault: %v", m.Faults())
	}
}

func TestSpawnJoinExitValues(t *testing.T) {
	b := asm.NewBuilder("t")
	w := b.Func("child", 1)
	{
		x := w.Arg(0)
		w.Muli(x, x, 10)
		w.Halt(x)
	}
	main := b.Func("main", 0)
	{
		t1, t2, a := main.Reg(), main.Reg(), main.Reg()
		main.Movi(a, 3)
		main.Spawn(t1, "child", a)
		main.Movi(a, 4)
		main.Spawn(t2, "child", a)
		main.Join(t2)
		main.Mov(a, t2) // 40
		main.Join(t1)
		main.Add(a, a, t1) // 40+30
		main.Halt(a)
	}
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	run(t, m)
	if got := m.Threads[0].ExitVal; got != 70 {
		t.Fatalf("got %d, want 70", got)
	}
	if len(m.Threads) != 3 {
		t.Fatalf("threads = %d", len(m.Threads))
	}
}

func TestJoinBadTidFaults(t *testing.T) {
	m := exec(t, func(f *asm.Func) {
		r := f.Reg()
		f.Movi(r, 99)
		f.Join(r)
		f.HaltImm(0)
	})
	if m.FaultCount() != 1 {
		t.Fatal("join on bad tid did not fault")
	}
}

func TestJoinFaultedChildPropagates(t *testing.T) {
	b := asm.NewBuilder("t")
	w := b.Func("child", 1)
	{
		z, d := w.Reg(), w.Reg()
		w.Movi(z, 0)
		w.Div(d, z, z)
		w.Halt(d)
	}
	main := b.Func("main", 0)
	{
		t1, a := main.Reg(), main.Reg()
		main.Movi(a, 0)
		main.Spawn(t1, "child", a)
		main.Join(t1)
		main.HaltImm(0)
	}
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	run(t, m)
	if m.FaultCount() != 2 {
		t.Fatalf("faults = %d, want child + joiner", m.FaultCount())
	}
}

func TestLockMutualExclusionAndFaults(t *testing.T) {
	// Two threads increment under a lock; the VM-level test only checks
	// fault-freedom and the final count under round-robin scheduling.
	b := asm.NewBuilder("t")
	cell := b.Words(0)
	w := b.Func("child", 1)
	{
		lk, base, v, i := w.Const(1), w.Const(cell), w.Reg(), w.Reg()
		w.Movi(i, 0)
		w.ForLtImm(i, 50, func() {
			w.LockR(lk)
			w.Ld(v, base, 0)
			w.Addi(v, v, 1)
			w.St(base, 0, v)
			w.UnlockR(lk)
		})
		w.HaltImm(0)
	}
	main := b.Func("main", 0)
	{
		t1, t2, a := main.Reg(), main.Reg(), main.Reg()
		main.Movi(a, 0)
		main.Spawn(t1, "child", a)
		main.Spawn(t2, "child", a)
		main.Join(t1)
		main.Join(t2)
		got, base := main.Reg(), main.Const(cell)
		main.Ld(got, base, 0)
		main.Halt(got)
	}
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	run(t, m)
	if got := m.Threads[0].ExitVal; got != 100 {
		t.Fatalf("locked count = %d, want 100", got)
	}
}

func TestUnlockNotHeldFaults(t *testing.T) {
	m := exec(t, func(f *asm.Func) {
		lk := f.Const(7)
		f.UnlockR(lk)
		f.HaltImm(0)
	})
	if m.FaultCount() != 1 || !strings.Contains(m.Faults()[0], "unlock") {
		t.Fatalf("faults: %v", m.Faults())
	}
}

func TestRecursiveLockFaults(t *testing.T) {
	m := exec(t, func(f *asm.Func) {
		lk := f.Const(7)
		f.LockR(lk)
		f.LockR(lk)
		f.HaltImm(0)
	})
	if m.FaultCount() != 1 || !strings.Contains(m.Faults()[0], "recursive") {
		t.Fatalf("faults: %v", m.Faults())
	}
}

func TestCasFadd(t *testing.T) {
	b := asm.NewBuilder("t")
	cell := b.Words(5)
	main := b.Func("main", 0)
	{
		addr, old, niu, ok, sum := main.Const(cell), main.Reg(), main.Reg(), main.Reg(), main.Reg()
		main.Movi(old, 5)
		main.Movi(niu, 9)
		main.Cas(ok, addr, old, niu) // succeeds: cell=9, ok=1
		main.Mov(sum, ok)
		main.Cas(ok, addr, old, niu) // fails: cell!=5, ok=0
		main.Add(sum, sum, ok)
		delta, got := main.Reg(), main.Reg()
		main.Movi(delta, 11)
		main.Fadd(got, addr, delta) // got=9, cell=20
		main.Add(sum, sum, got)
		main.Ld(got, addr, 0)
		main.Add(sum, sum, got) // 1+0+9+20 = 30
		main.Halt(sum)
	}
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	run(t, m)
	if got := m.Threads[0].ExitVal; got != 30 {
		t.Fatalf("got %d, want 30", got)
	}
}

func TestBarrierGenerations(t *testing.T) {
	// Three threads pass the same barrier 5 times; a shared counter must
	// show phase separation: after each barrier, the counter is a multiple
	// of 3 from every thread's perspective.
	b := asm.NewBuilder("t")
	cell := b.Words(0)
	fail := b.Words(0)
	w := b.Func("child", 1)
	{
		bar, n, base, failA := w.Const(9), w.Const(3), w.Const(cell), w.Const(fail)
		one := w.Const(1)
		v, c, i, got := w.Reg(), w.Reg(), w.Reg(), w.Reg()
		w.Movi(i, 0)
		w.ForLtImm(i, 5, func() {
			w.Fadd(v, base, one)
			w.Barrier(bar, n)
			w.Ld(got, base, 0)
			w.Modi(c, got, 3)
			w.IfNz(c, func() { w.St(failA, 0, one) })
		})
		w.HaltImm(0)
	}
	main := b.Func("main", 0)
	{
		ts := main.Regs(3)
		a := main.Reg()
		main.Movi(a, 0)
		for i := 0; i < 3; i++ {
			main.Spawn(ts[i], "child", a)
		}
		for i := 0; i < 3; i++ {
			main.Join(ts[i])
		}
		got, failA := main.Reg(), main.Const(fail)
		main.Ld(got, failA, 0)
		main.Halt(got)
	}
	b.SetEntry("main")
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	run(t, m)
	if got := m.Threads[0].ExitVal; got != 0 {
		t.Fatal("barrier phase separation violated")
	}
}

// fixedOS returns canned syscall results for testing the OpSys path.
type fixedOS struct {
	blockFirst int
	calls      int
}

func (o *fixedOS) Syscall(m *vm.Machine, th *vm.Thread, num vm.Word, args [6]vm.Word) vm.SysResult {
	o.calls++
	if o.blockFirst > 0 {
		o.blockFirst--
		return vm.SysResult{Block: true}
	}
	return vm.SysResult{
		Ret:    args[0] + args[1],
		Writes: []vm.MemWrite{{Addr: 500, Data: []vm.Word{num, args[0]}}},
	}
}

func TestSyscallResultAndWrites(t *testing.T) {
	b := asm.NewBuilder("t")
	main := b.Func("main", 0)
	{
		a, bb := main.Reg(), main.Reg()
		main.Movi(a, 30)
		main.Movi(bb, 12)
		main.Sys(77, a, bb)
		got, addr := main.Reg(), main.Reg()
		main.Movi(addr, 500)
		main.Ld(got, addr, 0)          // num = 77
		main.Add(got, got, asm.RetReg) // + 42
		main.Ld(addr, addr, 1)         // args[0] = 30
		main.Add(got, got, addr)       // 149
		main.Halt(got)
	}
	b.SetEntry("main")
	os := &fixedOS{blockFirst: 3}
	m := vm.NewMachine(b.MustBuild(), os, nil)
	run(t, m)
	if got := m.Threads[0].ExitVal; got != 149 {
		t.Fatalf("got %d, want 149", got)
	}
	if os.calls != 4 { // 3 blocked attempts + 1 success
		t.Fatalf("syscall attempts = %d, want 4", os.calls)
	}
	// A blocked attempt must not retire.
	if m.Threads[0].SysRetired != 1 {
		t.Fatalf("SysRetired = %d, want 1", m.Threads[0].SysRetired)
	}
}

func TestCheckpointRestoreDeterminism(t *testing.T) {
	b := asm.NewBuilder("t")
	cell := b.Words(0)
	w := b.Func("child", 1)
	{
		base, v, i := w.Const(cell), w.Reg(), w.Reg()
		one := w.Const(1)
		w.Movi(i, 0)
		w.ForLtImm(i, 200, func() {
			w.Fadd(v, base, one)
		})
		w.Halt(v)
	}
	main := b.Func("main", 0)
	{
		t1, t2, a := main.Reg(), main.Reg(), main.Reg()
		main.Movi(a, 0)
		main.Spawn(t1, "child", a)
		main.Spawn(t2, "child", a)
		main.Join(t1)
		main.Join(t2)
		main.HaltImm(0)
	}
	b.SetEntry("main")
	prog := b.MustBuild()

	m := vm.NewMachine(prog, nil, nil)
	// Run part way deterministically.
	for i := 0; i < 300; i++ {
		for _, th := range m.Threads {
			if th.Status == vm.Runnable {
				m.Step(th)
			}
		}
	}
	cp := m.Checkpoint()
	if cp.Hash() != m.StateHash() {
		t.Fatal("checkpoint hash differs from live machine hash")
	}

	// Finish the original and a restored copy with identical schedules.
	r := cp.Restore(prog, nil, nil)
	finish := func(mm *vm.Machine) uint64 {
		for steps := 0; !mm.Done(); steps++ {
			if steps > 1_000_000 {
				t.Fatal("livelock")
			}
			for _, th := range mm.Threads {
				if th.Status.Live() {
					mm.Step(th)
				}
			}
		}
		return mm.StateHash()
	}
	if h1, h2 := finish(m), finish(r); h1 != h2 {
		t.Fatalf("restored machine diverged: %016x vs %016x", h1, h2)
	}
}

func TestCheckpointNormalizesBlockedThreads(t *testing.T) {
	// A thread blocked on a lock checkpoints as Runnable at the same PC and
	// hashes identically to an un-attempted thread at that PC.
	b := asm.NewBuilder("t")
	w := b.Func("child", 1)
	{
		lk := w.Const(3)
		w.LockR(lk)
		w.UnlockR(lk)
		w.HaltImm(0)
	}
	main := b.Func("main", 0)
	{
		lk, t1, a := main.Const(3), main.Reg(), main.Reg()
		main.LockR(lk)
		main.Movi(a, 0)
		main.Spawn(t1, "child", a)
		main.Join(t1)
		main.HaltImm(0)
	}
	b.SetEntry("main")
	prog := b.MustBuild()
	m := vm.NewMachine(prog, nil, nil)
	// Step main until it holds the lock and has spawned; step child until
	// it blocks.
	for i := 0; i < 10; i++ {
		for _, th := range m.Threads {
			if th.Status.Live() && !th.Status.Blocked() {
				m.Step(th)
			}
		}
	}
	child := m.Threads[1]
	for child.Status == vm.Runnable {
		m.Step(child)
	}
	if child.Status != vm.BlockedLock {
		t.Fatalf("child status = %v, want blocked-lock", child.Status)
	}
	hBlocked := m.StateHash()
	cp := m.Checkpoint()
	if cp.Threads[1].Status != vm.Runnable {
		t.Fatal("checkpoint did not normalise blocked thread")
	}
	if cp.Hash() != hBlocked {
		t.Fatal("blocked-ness leaked into the state hash")
	}
}

func TestQuickImmediateOpsMatchGo(t *testing.T) {
	f := func(a int64, imm int64) bool {
		if imm == 0 {
			imm = 1
		}
		b := asm.NewBuilder("q")
		main := b.Func("main", 0)
		ra, rd, acc := main.Reg(), main.Reg(), main.Reg()
		main.Movi(ra, a)
		main.Addi(rd, ra, imm)
		main.Mov(acc, rd)
		main.Xori(rd, ra, imm)
		main.Add(acc, acc, rd)
		main.Andi(rd, ra, imm)
		main.Add(acc, acc, rd)
		main.Ori(rd, ra, imm)
		main.Add(acc, acc, rd)
		main.Modi(rd, ra, imm)
		main.Add(acc, acc, rd)
		main.Halt(acc)
		b.SetEntry("main")
		m := vm.NewMachine(b.MustBuild(), nil, nil)
		for !m.Done() {
			m.Step(m.Threads[0])
		}
		want := (a + imm) + (a ^ imm) + (a & imm) + (a | imm) + (a % imm)
		return m.Threads[0].ExitVal == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeAndInstrStrings(t *testing.T) {
	for op := vm.OpNop; op <= vm.OpHalt; op++ {
		if s := op.String(); strings.HasPrefix(s, "op(") {
			t.Fatalf("opcode %d has no name", op)
		}
	}
	in := vm.Instr{Op: vm.OpLd, A: 1, B: 2, Imm: -3}
	if got := in.String(); got != "ld r1, [r2-3]" {
		t.Fatalf("instr string = %q", got)
	}
}

func TestProgramLookups(t *testing.T) {
	b := asm.NewBuilder("t")
	f1 := b.Func("alpha", 0)
	f1.RetImm(0)
	f2 := b.Func("beta", 0)
	f2.HaltImm(0)
	b.SetEntry("beta")
	prog := b.MustBuild()
	if len(prog.Funcs) != 2 || prog.Funcs[0].Name != "alpha" || prog.Funcs[1].Name != "beta" {
		t.Fatalf("functions %+v, want alpha then beta", prog.Funcs)
	}
	if fi := prog.FuncAt(prog.Funcs[1].Entry); fi == nil || fi.Name != "beta" {
		t.Fatal("FuncAt broken")
	}
}
