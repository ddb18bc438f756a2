package vm_test

import (
	"errors"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
)

func buildTwoFuncs(t *testing.T) *vm.Program {
	t.Helper()
	b := asm.NewBuilder("t")
	f1 := b.Func("alpha", 0)
	f1.RetImm(0)
	f2 := b.Func("beta", 0)
	r := f2.Reg()
	f2.Movi(r, 7)
	f2.Halt(r)
	b.SetEntry("beta")
	return b.MustBuild()
}

func TestValidateAcceptsBuilderOutput(t *testing.T) {
	if err := buildTwoFuncs(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	good := buildTwoFuncs(t)
	cases := []struct {
		name string
		mut  func(p *vm.Program)
	}{
		{"empty code", func(p *vm.Program) { p.Code = nil }},
		{"no functions", func(p *vm.Program) { p.Funcs = nil }},
		{"entry below range", func(p *vm.Program) { p.Entry = -1 }},
		{"entry above range", func(p *vm.Program) { p.Entry = len(p.Funcs) }},
		{"function entry out of code", func(p *vm.Program) { p.Funcs[1].Entry = len(p.Code) }},
		{"negative function entry", func(p *vm.Program) { p.Funcs[0].Entry = -1 }},
		{"too many args", func(p *vm.Program) { p.Funcs[0].NArgs = vm.MaxArgs + 1 }},
		{"negative args", func(p *vm.Program) { p.Funcs[0].NArgs = -1 }},
		{"negative data base", func(p *vm.Program) { p.DataBase = -5; p.Data = []vm.Word{1} }},
		// The ISSUE 17 reproducer: before the operand check this image
		// passed NewMachine and the first Step died on a Go index panic.
		{"operand A outside the register file", func(p *vm.Program) { p.Code[0] = vm.Instr{Op: vm.OpMovi, A: 200} }},
		{"operand B outside the register file", func(p *vm.Program) { p.Code[0] = vm.Instr{Op: vm.OpMov, B: vm.NumRegs} }},
		{"operand C outside the register file", func(p *vm.Program) { p.Code[0] = vm.Instr{Op: vm.OpAdd, C: vm.NumRegs} }},
		{"operand D outside the register file", func(p *vm.Program) { p.Code[0] = vm.Instr{Op: vm.OpCas, D: 255} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := *good
			p.Funcs = append([]vm.FuncInfo(nil), good.Funcs...)
			p.Code = append([]vm.Instr(nil), good.Code...)
			tc.mut(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("validate accepted a malformed program")
			}
			if !errors.Is(err, vm.ErrInvalidProgram) {
				t.Fatalf("error %v does not wrap ErrInvalidProgram", err)
			}
		})
	}
	var nilProg *vm.Program
	if err := nilProg.Validate(); !errors.Is(err, vm.ErrInvalidProgram) {
		t.Fatalf("nil program: got %v", err)
	}
}

// The operand bound is exactly the register file, and a branch out of the
// code segment is still the guest's fault to take at run time, not a
// load-time rejection.
func TestValidateOperandBoundary(t *testing.T) {
	p := buildTwoFuncs(t)
	top := uint8(vm.NumRegs - 1)
	p.Code[0] = vm.Instr{Op: vm.OpCas, A: top, B: top, C: top, D: top}
	p.Code[1] = vm.Instr{Op: vm.OpJmp, Imm: 1 << 40}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewMachineRejectsInvalidProgram(t *testing.T) {
	p := buildTwoFuncs(t)
	p.Entry = len(p.Funcs) // corrupt after build
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewMachine accepted an invalid program")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, vm.ErrInvalidProgram) {
			t.Fatalf("panic value %v is not an ErrInvalidProgram error", r)
		}
	}()
	vm.NewMachine(p, nil, nil)
}

// FuncAt must treat a function's span as ending at the next function's
// entry and reject out-of-range pcs entirely.
func TestFuncAtBounds(t *testing.T) {
	p := buildTwoFuncs(t)
	if fi := p.FuncAt(-1); fi != nil {
		t.Fatalf("FuncAt(-1) = %v, want nil", fi)
	}
	if fi := p.FuncAt(len(p.Code)); fi != nil {
		t.Fatalf("FuncAt(len) = %v, want nil", fi)
	}
	alphaEnd := p.Funcs[1].Entry
	for pc := 0; pc < len(p.Code); pc++ {
		want := "alpha"
		if pc >= alphaEnd {
			want = "beta"
		}
		fi := p.FuncAt(pc)
		if fi == nil || fi.Name != want {
			t.Fatalf("FuncAt(%d) = %v, want %s", pc, fi, want)
		}
	}
}
