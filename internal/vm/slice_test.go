package vm_test

import (
	"reflect"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
)

// TestRunSliceMatchesStep drives one guest twice through the same
// interleaving, a quantum at a time: once by Step alone, once through
// RunSlice with Step only where the loop stops. Every thread and the
// state hash must agree, and the loop must have done nearly all the work.
func TestRunSliceMatchesStep(t *testing.T) {
	ref, got := benchMachine(t), benchMachine(t)
	want := drive(t, ref, func(th *vm.Thread, n uint64) uint64 { return stepN(ref, th, n) })
	var inLoop uint64
	total := drive(t, got, func(th *vm.Thread, n uint64) uint64 {
		before := th.Retired
		k := sliceN(got, th, n)
		if th.Retired-before != k {
			t.Fatalf("thread %d: slice reported %d retirements, thread counted %d", th.ID, k, th.Retired-before)
		}
		return k
	})
	for _, th := range got.Threads {
		r, _ := got.RunSlice(th, 1) // every thread has exited: nothing may retire
		inLoop += r
	}
	if total != want || inLoop != 0 {
		t.Fatalf("retired %d, reference %d; %d retired on dead threads", total, want, inLoop)
	}
	if !reflect.DeepEqual(got.Threads, ref.Threads) || got.StateHash() != ref.StateHash() {
		t.Fatalf("final state differs from the Step reference:\n%s\nreference:\n%s", got.DescribeState(), ref.DescribeState())
	}
}

// TestRunSliceBounds: the instruction budget is exact, the cycles are the
// cost table's, and a thread that is not Runnable is left alone.
func TestRunSliceBounds(t *testing.T) {
	b := asm.NewBuilder("bounds")
	f := b.Func("main", 0)
	base, v, lk := f.Const(asm.DefaultDataBase), f.Reg(), f.Reg()
	f.Movi(v, 5)     // with base's movi: 1 cycle each
	f.St(base, 0, v) // 2
	f.Ld(v, base, 0) // 2
	f.Addi(v, v, 1)  // 1
	f.Movi(lk, 9)    // 1
	f.LockR(lk)      // not plain
	f.HaltImm(0)
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	th := m.Threads[0]

	if n, c := m.RunSlice(th, 0); n != 0 || c != 0 || th.PC != 0 {
		t.Fatalf("RunSlice(0) retired %d for %d cycles, pc %d", n, c, th.PC)
	}
	if n, c := m.RunSlice(th, 4); n != 4 || c != 1+1+2+2 || th.Retired != 4 || th.PC != 4 {
		t.Fatalf("RunSlice(4) retired %d for %d cycles; thread retired %d, pc %d", n, c, th.Retired, th.PC)
	}
	if n, c := m.RunSlice(th, 100); n != 2 || c != 1+1 || m.Prog.Code[th.PC].Op != vm.OpLock {
		t.Fatalf("RunSlice to the lock retired %d for %d cycles, stopped at %s", n, c, m.Prog.Code[th.PC])
	}
	if n, _ := m.RunSlice(th, 100); n != 0 {
		t.Fatalf("RunSlice retired %d at a lock", n)
	}
	m.Locks[9] = 7 // held by someone else: the Step blocks the thread
	if res := m.Step(th); res.Retired || th.Status != vm.BlockedLock {
		t.Fatalf("lock step retired=%v status=%s", res.Retired, th.Status)
	}
	th.PC = 0 // a plain instruction, but the thread is blocked
	if n, _ := m.RunSlice(th, 100); n != 0 || th.PC != 0 {
		t.Fatalf("RunSlice retired %d on a %s thread", n, th.Status)
	}
}

// TestRunSliceLeavesTheRestToStep: before every instruction that is not
// plain, and before every plain one that would fault, the loop stops with
// the thread untouched at that instruction; the Step that follows is the
// reference semantics, so both machines end in the same state with the
// same fault text.
func TestRunSliceLeavesTheRestToStep(t *testing.T) {
	// raw cases are instructions the assembler will not emit: main starts
	// with two nops and the second is overwritten after the build.
	var patch *vm.Instr
	raw := func(in vm.Instr) func(f *asm.Func) {
		return func(f *asm.Func) { f.Nop(); f.Nop(); patch = &in }
	}
	cases := []struct {
		name  string
		stop  vm.Opcode // where the loop must stop
		fault string    // the fault the following Step raises; "" for none
		body  func(f *asm.Func)
	}{
		{"div by zero", vm.OpDiv, "divide by zero", func(f *asm.Func) {
			a, z := f.Const(7), f.Const(0)
			f.Div(a, a, z)
		}},
		{"mod by zero", vm.OpMod, "modulo by zero", func(f *asm.Func) {
			a, z := f.Const(7), f.Const(0)
			f.Mod(a, a, z)
		}},
		{"divi by zero", vm.OpDivi, "divide by zero immediate", func(f *asm.Func) { f.Divi(f.Const(7), f.Const(7), 0) }},
		{"modi by zero", vm.OpModi, "modulo by zero immediate", func(f *asm.Func) { f.Modi(f.Const(7), f.Const(7), 0) }},
		{"bad call target", vm.OpCall, "call to bad function 99", raw(vm.Instr{Op: vm.OpCall, Imm: 99})},
		{"negative call target", vm.OpCall, "call to bad function -1", raw(vm.Instr{Op: vm.OpCall, Imm: -1})},
		{"frame overflow", vm.OpCall, "call stack overflow", func(f *asm.Func) { f.Call("deep") }},
		{"empty-stack ret", vm.OpRet, "return with empty call stack", func(f *asm.Func) { f.Ret(f.Const(1)) }},
		// The jump itself is plain; what it lands on is not an instruction.
		{"pc out of range", vm.OpJmp, "pc out of range: 1099511627776", raw(vm.Instr{Op: vm.OpJmp, Imm: 1 << 40})},
		{"negative pc", vm.OpJmp, "pc out of range: -3", raw(vm.Instr{Op: vm.OpJmp, Imm: -3})},
		{"illegal opcode", vm.Opcode(200), "illegal opcode 200", raw(vm.Instr{Op: vm.Opcode(200)})},
		{"unlock not held", vm.OpUnlock, "unlock of lock 4 not held by tid 0", func(f *asm.Func) { f.UnlockR(f.Const(4)) }},
		{"halt", vm.OpHalt, "", func(f *asm.Func) { f.HaltImm(3) }},
		{"lock", vm.OpLock, "", func(f *asm.Func) { f.LockR(f.Const(4)) }},
		{"fadd", vm.OpFadd, "", func(f *asm.Func) { f.Fadd(f.Reg(), f.Const(asm.DefaultDataBase), f.Const(2)) }},
		{"cas", vm.OpCas, "", func(f *asm.Func) { f.Cas(f.Reg(), f.Const(asm.DefaultDataBase), f.Const(0), f.Const(2)) }},
		{"barrier", vm.OpBarArrive, "", func(f *asm.Func) { f.Barrier(f.Const(1), f.Const(1)) }},
		{"spawn", vm.OpSpawn, "", func(f *asm.Func) { f.Spawn(f.Reg(), "deep", f.Const(0)) }},
		{"join", vm.OpJoin, "join on bad tid 5", func(f *asm.Func) { f.Join(f.Const(5)) }},
		{"sig.handler", vm.OpSigH, "", func(f *asm.Func) { f.SigHandler("deep") }},
		{"sys", vm.OpSys, "", func(f *asm.Func) { f.Sys(42) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.NewBuilder(tc.name)
			f := b.Func("main", 0)
			tc.body(f)
			f.HaltImm(0)
			deep := b.Func("deep", 0) // recurses until the frame limit
			deep.Call("deep")
			deep.RetImm(0)
			prog := b.MustBuild()
			if patch != nil {
				prog.Code[1], patch = *patch, nil
			}

			got := vm.NewMachine(prog, &fixedOS{}, nil)
			th := got.Threads[0]
			got.RunSlice(th, 1<<20)
			if pc := th.PC; pc >= 0 && pc < len(prog.Code) && prog.Code[pc].Op != tc.stop {
				t.Fatalf("loop stopped at pc %d (%s), want a %s", pc, prog.Code[pc], tc.stop)
			}
			ref := vm.NewMachine(prog, &fixedOS{}, nil)
			for ref.Threads[0].Retired < th.Retired {
				if !ref.Step(ref.Threads[0]).Retired {
					t.Fatalf("reference stopped before the loop did: %s", ref.DescribeState())
				}
			}
			if !reflect.DeepEqual(th, ref.Threads[0]) {
				t.Fatalf("after %d instructions the loop is at pc %d (%s), the reference at pc %d (%s)",
					th.Retired, th.PC, th.Status, ref.Threads[0].PC, ref.Threads[0].Status)
			}
			if n, c := got.RunSlice(th, 1<<20); n != 0 || c != 0 {
				t.Fatalf("loop retired %d more at %s", n, prog.Code[th.PC].Op)
			}
			rg, rr := got.Step(th), ref.Step(ref.Threads[0])
			if rg != rr || !reflect.DeepEqual(got.Threads, ref.Threads) || got.StateHash() != ref.StateHash() {
				t.Fatalf("after the Step: %+v / %+v\n%s\nreference:\n%s", rg, rr, got.DescribeState(), ref.DescribeState())
			}
			if th.Fault != tc.fault {
				t.Fatalf("fault %q, want %q", th.Fault, tc.fault)
			}
		})
	}
}
