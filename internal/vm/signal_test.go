package vm_test

import (
	"fmt"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
)

// signals says which signal, if any, a thread takes before its next
// instruction, consuming it; a nil one delivers nothing.
type signals func(t *vm.Thread) (vm.Word, bool)

// attempt is a scheduler's attempt at t: Deliver of the signal due says t
// takes, else Step.
func attempt(m *vm.Machine, t *vm.Thread, due signals) vm.StepResult {
	if due != nil {
		if sig, ok := due(t); ok {
			return m.Deliver(t, sig)
		}
	}
	return m.Step(t)
}

// sigAt delivers the given signals at exact retired counts of thread 0.
func sigAt(deliveries map[uint64]vm.Word) signals {
	return func(t *vm.Thread) (vm.Word, bool) {
		if sig, ok := deliveries[t.Retired]; ok && t.ID == 0 {
			delete(deliveries, t.Retired)
			return sig, true
		}
		return 0, false
	}
}

// buildSignalProg: main installs a handler that adds the signal into a
// cell, then runs a counting loop; exit value is loop count * 1000 + cell.
func buildSignalProg(withHandler bool, iters int64) (*asm.Builder, vm.Word) {
	b := asm.NewBuilder("sig")
	cell := b.Words(0)
	h := b.Func("handler", 1)
	{
		sig := h.Arg(0)
		base, t := h.Const(cell), h.Reg()
		h.Ld(t, base, 0)
		h.Add(t, t, sig)
		h.St(base, 0, t)
		h.RetImm(0)
	}
	m := b.Func("main", 0)
	{
		if withHandler {
			m.SigHandler("handler")
		}
		i := m.Reg()
		m.Movi(i, 0)
		m.ForLtImm(i, iters, func() {})
		got, base := m.Reg(), m.Const(cell)
		m.Ld(got, base, 0)
		m.Muli(i, i, 1000)
		m.Add(got, got, i)
		m.Halt(got)
	}
	b.SetEntry("main")
	return b, cell
}

func runToEnd(t *testing.T, m *vm.Machine, due signals) {
	t.Helper()
	for steps := 0; !m.Done(); steps++ {
		if steps > 1_000_000 {
			t.Fatal("livelock")
		}
		for _, th := range m.Threads {
			if th.Status.Live() {
				attempt(m, th, due)
			}
		}
	}
	if m.FaultCount() != 0 {
		t.Fatalf("faults: %v", m.Faults())
	}
}

func TestSignalHandlerRunsAndStatePreserved(t *testing.T) {
	b, _ := buildSignalProg(true, 50)
	prog := b.MustBuild()
	m := vm.NewMachine(prog, nil, nil)
	runToEnd(t, m, sigAt(map[uint64]vm.Word{20: 7, 60: 11}))
	// Loop must complete exactly (i == 50) and the handler billed 7+11.
	if got := m.Threads[0].ExitVal; got != 50*1000+18 {
		t.Fatalf("exit = %d, want 50018", got)
	}
}

func TestSignalWithoutHandlerAbsorbedButRetired(t *testing.T) {
	b, _ := buildSignalProg(false, 50)
	prog := b.MustBuild()
	m := vm.NewMachine(prog, nil, nil)
	runToEnd(t, m, sigAt(map[uint64]vm.Word{20: 7}))
	if got := m.Threads[0].ExitVal; got != 50*1000 {
		t.Fatalf("exit = %d, want 50000", got)
	}
	// The absorbed delivery still occupies one retirement slot.
	bb, _ := buildSignalProg(false, 50)
	m2 := vm.NewMachine(bb.MustBuild(), nil, nil)
	runToEnd(t, m2, nil)
	if m.Threads[0].Retired != m2.Threads[0].Retired+1 {
		t.Fatalf("delivery not retired: %d vs %d", m.Threads[0].Retired, m2.Threads[0].Retired)
	}
	if m.Threads[0].SigRetired != 1 {
		t.Fatalf("SigRetired = %d", m.Threads[0].SigRetired)
	}
}

func TestSignalPreservesR0AcrossHandler(t *testing.T) {
	// r0 (the call-result register) must survive a signal even though the
	// handler itself returns through RET.
	b := asm.NewBuilder("r0")
	h := b.Func("handler", 1)
	h.RetImm(999) // tries to clobber r0 via its return value
	m := b.Func("main", 0)
	{
		m.SigHandler("handler")
		i := m.Reg()
		m.Movi(i, 0)
		// Put a sentinel in r0 via a call.
		m.ForLtImm(i, 30, func() {})
		m.Halt(asm.RetReg)
	}
	b.SetEntry("main")
	prog := b.MustBuild()
	mach := vm.NewMachine(prog, nil, nil)
	// Seed r0 by hand after handler installation, then interrupt.
	mach.Threads[0].Regs[0] = 4242
	runToEnd(t, mach, sigAt(map[uint64]vm.Word{10: 5}))
	if got := mach.Threads[0].ExitVal; got != 4242 {
		t.Fatalf("r0 across signal = %d, want 4242", got)
	}
}

func TestSignalHandlerInheritedBySpawn(t *testing.T) {
	b := asm.NewBuilder("inherit")
	cell := b.Words(0)
	h := b.Func("handler", 1)
	{
		sig := h.Arg(0)
		base, t0 := h.Const(cell), h.Reg()
		h.Ld(t0, base, 0)
		h.Add(t0, t0, sig)
		h.St(base, 0, t0)
		h.RetImm(0)
	}
	w := b.Func("worker", 1)
	{
		i := w.Reg()
		w.Movi(i, 0)
		w.ForLtImm(i, 100, func() {})
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	{
		m.SigHandler("handler")
		t1, a := m.Reg(), m.Reg()
		m.Movi(a, 0)
		m.Spawn(t1, "worker", a)
		m.Join(t1)
		got, base := m.Reg(), m.Const(cell)
		m.Ld(got, base, 0)
		m.Halt(got)
	}
	b.SetEntry("main")
	prog := b.MustBuild()
	mach := vm.NewMachine(prog, nil, nil)
	runToEnd(t, mach, func(t *vm.Thread) (vm.Word, bool) {
		if t.ID == 1 && t.Retired == 40 {
			return 13, true
		}
		return 0, false
	})
	if got := mach.Threads[0].ExitVal; got != 13 {
		t.Fatalf("child did not inherit handler: cell = %d", got)
	}
}

func TestSignalDuringBlockedLockDeliversFirst(t *testing.T) {
	// Thread blocked on a lock receives a signal, runs the handler, and
	// then resumes waiting; when the lock frees it proceeds normally.
	b := asm.NewBuilder("blocked")
	cell := b.Words(0)
	h := b.Func("handler", 1)
	{
		base, t0 := h.Const(cell), h.Reg()
		h.Ld(t0, base, 0)
		h.Addi(t0, t0, 100)
		h.St(base, 0, t0)
		h.RetImm(0)
	}
	w := b.Func("worker", 1)
	{
		w.SigHandler("handler")
		lk := w.Const(4)
		w.LockR(lk)
		w.UnlockR(lk)
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	{
		lk, t1, a, i := m.Const(4), m.Reg(), m.Reg(), m.Reg()
		m.LockR(lk)
		m.Movi(a, 0)
		m.Spawn(t1, "worker", a)
		m.Movi(i, 0)
		m.ForLtImm(i, 200, func() {}) // hold the lock a while
		m.UnlockR(lk)
		m.Join(t1)
		got, base := m.Reg(), m.Const(cell)
		m.Ld(got, base, 0)
		m.Halt(got)
	}
	b.SetEntry("main")
	prog := b.MustBuild()
	mach := vm.NewMachine(prog, nil, nil)
	delivered := false
	runToEnd(t, mach, func(t *vm.Thread) (vm.Word, bool) {
		// Fire once, at the worker's first step after its handler setup.
		if t.ID == 1 && t.Retired >= 2 && !delivered {
			delivered = true
			return 1, true
		}
		return 0, false
	})
	if !delivered {
		t.Fatal("signal never delivered")
	}
	if got := mach.Threads[0].ExitVal; got != 100 {
		t.Fatalf("cell = %d, want 100", got)
	}
}

func TestCheckpointMidHandlerRestoresExactly(t *testing.T) {
	// Checkpoint while a thread is inside a signal handler: the signal
	// frame (including the interrupted registers) is architectural state
	// and must survive restore bit-exactly.
	b, _ := buildSignalProg(true, 200)
	prog := b.MustBuild()
	m := vm.NewMachine(prog, nil, nil)
	due := sigAt(map[uint64]vm.Word{50: 7})
	// Step until the handler is entered (frame depth 1 with Signal bit).
	entered := false
	for steps := 0; steps < 200 && !entered; steps++ {
		attempt(m, m.Threads[0], due)
		for _, f := range m.Threads[0].Frames {
			if f.Signal {
				entered = true
			}
		}
	}
	if !entered {
		t.Fatal("handler never entered")
	}
	cp := m.Checkpoint()
	r := cp.Restore(prog, nil, nil)
	if r.StateHash() != m.StateHash() {
		t.Fatal("restore changed state mid-handler")
	}
	finish := func(mm *vm.Machine) vm.Word {
		for !mm.Done() {
			mm.Step(mm.Threads[0])
		}
		return mm.Threads[0].ExitVal
	}
	a, bb := finish(m), finish(r)
	if a != bb || a != 200*1000+7 {
		t.Fatalf("post-restore divergence: %d vs %d (want 200007)", a, bb)
	}
}

func TestSigHandlerBadFunctionFaults(t *testing.T) {
	prog := &vm.Program{
		Name:  "bad",
		Funcs: []vm.FuncInfo{{Name: "main", Entry: 0}},
		Code: []vm.Instr{
			{Op: vm.OpSigH, Imm: 99},
			{Op: vm.OpHalt},
		},
	}
	m := vm.NewMachine(prog, nil, nil)
	m.Step(m.Threads[0])
	if m.FaultCount() != 1 {
		t.Fatal("bad handler index did not fault")
	}
}

// TestFaultRetires: a fault is the faulting thread's last retirement.
// Step — or Deliver, which keeps Step's precedence — reports it retired at
// no cost, the thread's retired count — and, for a signal delivered into a
// full call stack, its signal count — advances by one, and OnRetire sees it
// once, at the static charge of the instruction (Sync for the delivery,
// nothing for a fetch outside the code). A signal due at a pc outside the
// code is not taken: the fetch faults first. A dead thread takes nothing
// either: Deliver panics on it, as Step does.
func TestFaultRetires(t *testing.T) {
	prog := &vm.Program{
		Name:  "faults",
		Funcs: []vm.FuncInfo{{Name: "main", Entry: 0}, {Name: "handler", Entry: 2}},
		Code: []vm.Instr{
			{Op: vm.OpDiv, A: 1, B: 2, C: 3}, // r3 is zero
			{Op: vm.OpHalt},
			{Op: vm.OpRet},
		},
	}
	costs := vm.DefaultCosts()
	outside := func(_ *vm.Machine, th *vm.Thread) { th.PC = len(prog.Code) }
	for _, tc := range []struct {
		name   string
		setup  func(m *vm.Machine, th *vm.Thread)
		signal bool // Deliver a signal rather than Step
		fault  string
		pc     int    // where the fault leaves the thread, and OnRetire's pc
		sigs   uint64 // signal deliveries the fault retires
		charge int64  // OnRetire's static charge
	}{
		{"divide by zero", func(*vm.Machine, *vm.Thread) {}, false, "divide by zero", 0, 0, costs.Instr},
		{"pc out of range", outside, false, "pc out of range: 3", len(prog.Code), 0, 0},
		{"signal at a pc out of range", outside, true, "pc out of range: 3", len(prog.Code), 0, 0},
		{"signal into a full call stack", func(m *vm.Machine, th *vm.Thread) {
			th.SigHandler = 1
			th.Frames = make([]vm.Frame, vm.MaxFrames)
		}, true, "signal delivery overflowed the call stack", 0, 1, costs.Sync},
	} {
		m := vm.NewMachine(prog, nil, costs)
		th := m.Threads[0]
		tc.setup(m, th)
		var retires []string
		m.Hooks.OnRetire = func(t *vm.Thread, pc int, cost int64) {
			retires = append(retires, fmt.Sprintf("tid %d pc %d cost %d", t.ID, pc, cost))
		}
		due := signals(nil)
		if tc.signal {
			due = func(*vm.Thread) (vm.Word, bool) { return 5, true }
		}
		res := attempt(m, th, due)
		if res != (vm.StepResult{Retired: true}) || th.Retired != 1 || th.SigRetired != tc.sigs {
			t.Errorf("%s: Step = %+v, thread retired %d, signals %d; want a free retirement, 1 and %d",
				tc.name, res, th.Retired, th.SigRetired, tc.sigs)
		}
		if th.Status != vm.Faulted || th.Fault != tc.fault || th.PC != tc.pc || !m.Done() || m.FaultCount() != 1 {
			t.Errorf("%s: thread %s at pc %d (%q), machine done %v with %d faults; want faulted at pc %d (%q)",
				tc.name, th.Status, th.PC, th.Fault, m.Done(), m.FaultCount(), tc.pc, tc.fault)
		}
		want := fmt.Sprintf("tid 0 pc %d cost %d", tc.pc, tc.charge)
		if len(retires) != 1 || retires[0] != want {
			t.Errorf("%s: OnRetire saw %q, want %q", tc.name, retires, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Deliver to the dead thread did not panic", tc.name)
				}
			}()
			m.Deliver(th, 5)
		}()
	}
}
