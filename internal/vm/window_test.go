package vm_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
)

// windowN retires up to n instructions of th through windows of the given
// cycle budget, each committed at once, with Step wherever a window
// retires nothing. Committing every window makes it a drop-in for stepN.
func windowN(t testing.TB, m *vm.Machine, th *vm.Thread, w *vm.Window, n uint64, budget int64) uint64 {
	var k uint64
	for k < n && th.Status.Live() {
		w.Open(th)
		r, cycles, last := m.RunWindow(th, w, n-k, budget)
		if r == 0 && (cycles != 0 || last != 0) || r > 0 && (last < 1 || cycles-last >= budget) {
			t.Fatalf("RunWindow(n=%d, budget=%d) retired %d for %d cycles, the last %d", n-k, budget, r, cycles, last)
		}
		w.Commit(m)
		k += r
		if r == 0 {
			if !m.Step(th).Retired {
				break
			}
			k++
		}
	}
	return k
}

// TestRunWindowMatchesStep drives one guest twice through the same
// interleaving, a quantum at a time: once by Step alone, once through
// windows of every small budget in turn with Step only where a window
// stops. Every thread and the state hash must agree, and the windows must
// have done nearly all the work.
func TestRunWindowMatchesStep(t *testing.T) {
	ref, got := benchMachine(t), benchMachine(t)
	want := drive(t, ref, func(th *vm.Thread, n uint64) uint64 { return stepN(ref, th, n) })
	var w vm.Window
	var budget int64
	var inWindows uint64
	total := drive(t, got, func(th *vm.Thread, n uint64) uint64 {
		budget = budget%40 + 1
		before, sys, sync := th.Retired, th.SysRetired, th.SyncRetired
		k := windowN(t, got, th, &w, n, budget)
		if th.Retired-before != k {
			t.Fatalf("thread %d: windows reported %d retirements, thread counted %d", th.ID, k, th.Retired-before)
		}
		inWindows += k - (th.SysRetired - sys) - (th.SyncRetired - sync)
		return k
	})
	if total != want {
		t.Fatalf("retired %d, reference %d", total, want)
	}
	if !reflect.DeepEqual(got.Threads, ref.Threads) || got.StateHash() != ref.StateHash() {
		t.Fatalf("final state differs from the Step reference:\n%s\nreference:\n%s", got.DescribeState(), ref.DescribeState())
	}
	if got.Mem.PageCount() != ref.Mem.PageCount() || got.Mem.Stats() != ref.Mem.Stats() {
		t.Fatalf("memory has %d pages, %+v; reference %d pages, %+v", got.Mem.PageCount(), got.Mem.Stats(), ref.Mem.PageCount(), ref.Mem.Stats())
	}
	if inWindows*100 < total*95 {
		t.Fatalf("only %d of %d instructions can have retired in windows", inWindows, total)
	}
}

// TestRunWindowOpcodes holds the window loop to step one instruction at a
// time: every plain opcode over operands that include zero divisors,
// shift counts of 64 and more and the extreme words must leave the thread,
// the memory image and the charge exactly as Step does — and where Step
// faults, the window must have stopped short with the thread untouched.
func TestRunWindowOpcodes(t *testing.T) {
	const base = asm.DefaultDataBase
	operands := []vm.Word{0, 1, -1, 2, 7, 63, 64, 65, 200, math.MinInt64, math.MaxInt64, base, base + 3}
	for op := vm.OpNop; op <= vm.OpHalt; op++ {
		plain := op <= vm.OpStx || op == vm.OpTid
		for i, x := range operands {
			for j, y := range operands {
				imm := operands[(i+j)%len(operands)]
				switch op {
				case vm.OpJmp, vm.OpJz, vm.OpJnz:
					imm = 3 // the nop below the halt
				case vm.OpCall, vm.OpSpawn, vm.OpSigH:
					imm = 1 // function "f"
				case vm.OpLd, vm.OpSt:
					imm %= 5000
				}
				prog := &vm.Program{
					Name: "op",
					Code: []vm.Instr{
						{Op: vm.OpCall, Imm: 1}, // so that ret has a frame to pop
						{Op: vm.OpHalt},
						{Op: op, A: 3, B: 4, C: 5, D: 6, Imm: imm},
						{Op: vm.OpNop},
						{Op: vm.OpHalt},
					},
					Funcs:    []vm.FuncInfo{{Name: "main", Entry: 0}, {Name: "f", Entry: 2}},
					Data:     []vm.Word{11, 22, 33, 44},
					DataBase: base,
				}
				name := fmt.Sprintf("%s x=%d y=%d imm=%d", op, x, y, imm)
				ref, got := vm.NewMachine(prog, &fixedOS{}, nil), vm.NewMachine(prog, &fixedOS{}, nil)
				for _, m := range []*vm.Machine{ref, got} {
					th := m.Threads[0]
					if !m.Step(th).Retired { // the call
						t.Fatal("set-up call did not retire")
					}
					th.Regs[3], th.Regs[4], th.Regs[5], th.Regs[6] = x^y, x, y, x+y
				}
				th := got.Threads[0]
				before := *th
				var w vm.Window
				w.Open(th)
				n, cycles, last := got.RunWindow(th, &w, 1, 1)
				res := ref.Step(ref.Threads[0])
				if faulted := ref.Threads[0].Status == vm.Faulted; !plain || faulted {
					if n != 0 || cycles != 0 || !reflect.DeepEqual(*th, before) || len(w.Stores)+len(w.Loads) != 0 {
						t.Fatalf("%s: window retired %d for %d cycles; Step faulted %v", name, n, cycles, faulted)
					}
					continue
				}
				w.Commit(got)
				if n != 1 || cycles != res.Cost || last != res.Cost {
					t.Fatalf("%s: window retired %d for %d cycles (last %d), Step one for %d", name, n, cycles, last, res.Cost)
				}
				if !reflect.DeepEqual(got.Threads, ref.Threads) || got.StateHash() != ref.StateHash() {
					t.Fatalf("%s: window and Step disagree:\n%s\nreference:\n%s", name, got.DescribeState(), ref.DescribeState())
				}
			}
		}
	}
}

// TestRunWindowBounds: the cycle budget stops the loop before the first
// instruction that would start at or after it — not before the first that
// would end after it — the instruction budget is exact, Starts marks the
// cycle each retirement began at, stores stay out of guest memory until
// Commit, and loads see the window's own stores.
func TestRunWindowBounds(t *testing.T) {
	const base = asm.DefaultDataBase
	b := asm.NewBuilder("bounds")
	f := b.Func("main", 0)
	p, v, u := f.Const(base), f.Reg(), f.Reg() // movi: 1 cycle
	f.Movi(v, 5)                               // 1
	f.St(p, 0, v)                              // 2: starts at 2
	f.Movi(v, 9)                               // 1: starts at 4
	f.St(p, 0, v)                              // 2: starts at 5
	f.Ld(u, p, 0)                              // 2: starts at 7; forwarded, the younger store
	f.Ld(v, p, 1)                              // 2: starts at 9; from memory
	f.Add(u, u, v)                             // 1: starts at 11
	f.LockR(u)                                 // not plain
	f.HaltImm(0)
	b.Words(3, 4)
	prog := b.MustBuild()
	starts := []int{0, 1, 2, 4, 5, 7, 9, 11}

	for _, tc := range []struct {
		n       uint64
		budget  int64
		retired uint64
		cycles  int64
	}{
		{100, 0, 0, 0},
		{0, 100, 0, 0},
		{100, 1, 1, 1},
		{100, 2, 2, 2},
		{100, 3, 3, 4}, // the store starts at 2 < 3 and ends at 4
		{100, 4, 3, 4}, // nothing may start at 4
		{100, 5, 4, 5},
		{100, 8, 6, 9},
		{100, 12, 8, 12},
		{100, 1000, 8, 12}, // stops at the lock
		{5, 1000, 5, 7},
	} {
		m := vm.NewMachine(prog, nil, nil)
		th := m.Threads[0]
		var w vm.Window
		w.Open(th)
		n, c, _ := m.RunWindow(th, &w, tc.n, tc.budget)
		if n != tc.retired || c != tc.cycles || th.Retired != tc.retired {
			t.Errorf("RunWindow(n=%d, budget=%d) retired %d (thread %d) for %d cycles, want %d for %d",
				tc.n, tc.budget, n, th.Retired, c, tc.retired, tc.cycles)
		}
		var want uint64
		for _, s := range starts[:tc.retired] {
			want |= 1 << s
		}
		if w.Starts != want {
			t.Errorf("RunWindow(n=%d, budget=%d) marked starts %b, want %b", tc.n, tc.budget, w.Starts, want)
		}
		if got := m.Mem.Peek(base); got != 3 {
			t.Errorf("budget %d: guest memory holds %d before Commit", tc.budget, got)
		}
		if tc.retired == 8 {
			if th.Regs[u] != 9+4 || m.Prog.Code[th.PC].Op != vm.OpLock {
				t.Errorf("budget %d: forwarded load + memory load = %d, stopped at %s", tc.budget, th.Regs[u], m.Prog.Code[th.PC])
			}
			if !reflect.DeepEqual(w.Stores, []vm.WinStore{{Addr: base, Val: 5}, {Addr: base, Val: 9}}) || !reflect.DeepEqual(w.Loads, []vm.Word{base + 1}) {
				t.Errorf("budget %d: stores %v loads %v", tc.budget, w.Stores, w.Loads)
			}
			w.Commit(m)
			if got := m.Mem.Peek(base); got != 9 {
				t.Errorf("after Commit guest memory holds %d, want 9", got)
			}
		}
	}

	// A thread that is not Runnable is left alone.
	m := vm.NewMachine(prog, nil, nil)
	th := m.Threads[0]
	th.Status = vm.BlockedLock
	var w vm.Window
	w.Open(th)
	if n, c, _ := m.RunWindow(th, &w, 100, 100); n != 0 || c != 0 || th.PC != 0 {
		t.Fatalf("RunWindow retired %d on a %s thread", n, th.Status)
	}
}

// TestRunWindowBufferFull: a window holds vm.WindowCap stores and as many
// loads; the access that does not fit is left for Step.
func TestRunWindowBufferFull(t *testing.T) {
	const base = asm.DefaultDataBase
	for _, loads := range []bool{false, true} {
		b := asm.NewBuilder("full")
		f := b.Func("main", 0)
		p, v := f.Const(base), f.Reg()
		for i := 0; i < vm.WindowCap+4; i++ {
			if loads {
				f.Ld(v, p, vm.Word(i))
			} else {
				f.St(p, vm.Word(i), p)
			}
		}
		f.HaltImm(0)
		m := vm.NewMachine(b.MustBuild(), nil, nil)
		th := m.Threads[0]
		var w vm.Window
		w.Open(th)
		n, _, _ := m.RunWindow(th, &w, 1000, 1000)
		if n != 1+vm.WindowCap || len(w.Stores)+len(w.Loads) != vm.WindowCap {
			t.Fatalf("loads=%v: retired %d with %d stores and %d loads buffered", loads, n, len(w.Stores), len(w.Loads))
		}
		if !m.Step(th).Retired || th.Retired != 2+vm.WindowCap {
			t.Fatalf("loads=%v: Step did not take the access the window left", loads)
		}
	}
}

// TestWindowUndo: Undo restores registers, pc, frames and the retired
// count exactly — also when the window returned out of frames that were
// on the stack when it opened and then called over their slots — and the
// thread then runs again to the same place.
func TestWindowUndo(t *testing.T) {
	const base = asm.DefaultDataBase
	b := asm.NewBuilder("undo")
	main := b.Func("main", 0)
	r := main.Reg()
	main.Movi(r, 3)
	main.Call("outer", r)
	main.Call("leaf", r) // over the slots outer and inner occupied
	main.Mov(r, asm.RetReg)
	main.Halt(r)
	outer := b.Func("outer", 1)
	x := outer.Reg()
	outer.Addi(x, outer.Arg(0), 10)
	outer.Call("inner", x)
	outer.Add(x, x, asm.RetReg)
	outer.Ret(x)
	inner := b.Func("inner", 1)
	y, p := inner.Reg(), inner.Const(base)
	inner.Muli(y, inner.Arg(0), 3)
	inner.St(p, 0, y) // the windows below open here, two frames deep
	inner.Ld(y, p, 0)
	inner.Ret(y)
	leaf := b.Func("leaf", 1)
	leaf.Call("inner", leaf.Arg(0))
	leaf.Ret(asm.RetReg)
	b.Zeros(1)
	prog := b.MustBuild()

	ref := vm.NewMachine(prog, nil, nil)
	for ref.Threads[0].Status.Live() {
		ref.Step(ref.Threads[0])
	}

	m := vm.NewMachine(prog, nil, nil)
	th := m.Threads[0]
	for len(th.Frames) < 2 || m.Prog.Code[th.PC].Op != vm.OpSt {
		if !m.Step(th).Retired {
			t.Fatal("guest stopped before inner's store")
		}
	}
	open := *th
	open.Frames = append([]vm.Frame(nil), th.Frames...)
	hash := m.StateHash()

	var w vm.Window
	w.Open(th)
	var reached []int
	for _, budget := range []int64{1, 3, 6, 9, 14, 20, 1000} {
		n, _, _ := m.RunWindow(th, &w, 1000, budget)
		reached = append(reached, len(th.Frames))
		if n == 0 {
			t.Fatalf("budget %d: nothing retired", budget)
		}
		w.Undo(th)
		if !reflect.DeepEqual(*th, open) || m.StateHash() != hash {
			t.Fatalf("budget %d: after Undo pc %d retired %d frames %d, at Open pc %d retired %d frames %d (registers equal: %v)",
				budget, th.PC, th.Retired, len(th.Frames), open.PC, open.Retired, len(open.Frames), th.Regs == open.Regs)
		}
		if len(w.Stores)+len(w.Loads) != 0 {
			t.Fatalf("budget %d: Undo left %d stores and %d loads buffered", budget, len(w.Stores), len(w.Loads))
		}
	}
	// The budgets must have covered: still inside inner, back in outer,
	// back in main, and down again into leaf and inner over the old slots.
	if !reflect.DeepEqual(reached, []int{2, 2, 1, 1, 2, 0, 0}) {
		t.Fatalf("frame depths reached %v; the program no longer exercises Undo", reached)
	}

	// And the run the last Undo rewound is still the reference's.
	m.RunWindow(th, &w, 1000, 1000)
	w.Commit(m)
	for th.Status.Live() {
		m.Step(th)
	}
	if !reflect.DeepEqual(m.Threads, ref.Threads) || m.StateHash() != ref.StateHash() {
		t.Fatalf("after undo and re-run:\n%s\nreference:\n%s", m.DescribeState(), ref.DescribeState())
	}
}
