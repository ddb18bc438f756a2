package analyze

import (
	"math"
	"testing"

	"doubleplay/internal/vm"
)

// edgeWords are the operands constant folding is most likely to get
// wrong: zeros, signs, the extremes and shift counts of 64 and more.
var edgeWords = []vm.Word{0, 1, -1, 2, -7, 63, 64, 65, 200, math.MinInt64, math.MaxInt64}

// stepALU runs one instruction on a fresh machine with r1 = x and r2 = y,
// and returns what it wrote to r3, or false if the instruction faulted.
func stepALU(in vm.Instr, x, y vm.Word) (vm.Word, bool) {
	prog := &vm.Program{
		Name:  "fold",
		Code:  []vm.Instr{in, {Op: vm.OpHalt}},
		Funcs: []vm.FuncInfo{{Name: "main"}},
	}
	m := vm.NewMachine(prog, nil, nil)
	th := m.Threads[0]
	th.Regs[1], th.Regs[2] = x, y
	m.Step(th)
	if th.Status == vm.Faulted {
		return 0, false
	}
	return th.Regs[3], true
}

// checkFold holds one folded value to what Step did with the same operands.
func checkFold(t *testing.T, op vm.Opcode, x, y vm.Word, got aval, want vm.Word, ok bool) {
	t.Helper()
	switch {
	case !ok && got != unknown:
		t.Errorf("%s %d, %d faults, but folds to %+v", op, x, y, got)
	case ok && got != konst(want):
		t.Errorf("%s %d, %d: Step writes %d, folded %+v", op, x, y, want, got)
	}
}

// TestFoldMatchesStep holds foldBin and foldImm to Machine.Step, whose
// semantics they mirror: for every ALU opcode over edge operands, a folded
// constant is what Step writes, and a faulting division folds to unknown.
func TestFoldMatchesStep(t *testing.T) {
	bin := []vm.Opcode{vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpAnd, vm.OpOr,
		vm.OpXor, vm.OpShl, vm.OpShr, vm.OpSlt, vm.OpSle, vm.OpSeq, vm.OpSne}
	imm := []vm.Opcode{vm.OpAddi, vm.OpMuli, vm.OpDivi, vm.OpModi, vm.OpAndi, vm.OpOri,
		vm.OpXori, vm.OpShli, vm.OpShri, vm.OpSlti, vm.OpSlei, vm.OpSeqi, vm.OpSnei}
	for _, x := range edgeWords {
		for _, y := range edgeWords {
			for _, op := range bin {
				want, ok := stepALU(vm.Instr{Op: op, A: 3, B: 1, C: 2}, x, y)
				checkFold(t, op, x, y, foldBin(op, konst(x), konst(y)), want, ok)
			}
			for _, op := range imm {
				want, ok := stepALU(vm.Instr{Op: op, A: 3, B: 1, Imm: y}, x, 0)
				checkFold(t, op, x, y, foldImm(op, konst(x), y), want, ok)
			}
		}
	}
}
