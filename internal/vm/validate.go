package vm

import (
	"errors"
	"fmt"
)

// ErrInvalidProgram is wrapped by every error returned from
// Program.Validate, so callers can classify load-time rejection with
// errors.Is regardless of which structural check failed.
var ErrInvalidProgram = errors.New("vm: invalid program")

// Validate performs the cheap structural checks a program must pass before
// it can run at all: a non-empty code segment, an entry function, every
// function entry inside the code segment, sane arities, every register
// operand inside the register file, and a sane data segment. It is called
// by NewMachine so malformed images are rejected up front with a named
// error instead of surfacing later as a runtime guest fault at some
// unrelated pc — or, for a register operand, as a host index panic; the
// interpreter indexes the register file on the strength of this check.
// Deeper checks (branch targets, lock balance, dataflow) live in
// internal/analyze; a branch out of the code segment stays a guest fault.
func (p *Program) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidProgram, fmt.Sprintf(format, args...))
	}
	if p == nil {
		return fail("nil program")
	}
	if len(p.Code) == 0 {
		return fail("program %q has an empty code segment", p.Name)
	}
	if len(p.Funcs) == 0 {
		return fail("program %q has no functions", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Funcs) {
		return fail("program %q entry index %d outside function table [0,%d)", p.Name, p.Entry, len(p.Funcs))
	}
	for i, f := range p.Funcs {
		if f.Entry < 0 || f.Entry >= len(p.Code) {
			return fail("program %q function %d (%q) entry %d outside code [0,%d)", p.Name, i, f.Name, f.Entry, len(p.Code))
		}
		if f.NArgs < 0 || f.NArgs > MaxArgs {
			return fail("program %q function %d (%q) declares %d args; max %d", p.Name, i, f.Name, f.NArgs, MaxArgs)
		}
	}
	for pc, in := range p.Code {
		if in.A >= NumRegs || in.B >= NumRegs || in.C >= NumRegs || in.D >= NumRegs {
			return fail("program %q instruction %d (%s) names a register outside r0..r%d", p.Name, pc, in, NumRegs-1)
		}
	}
	if p.DataBase < 0 {
		return fail("program %q has negative data base %d", p.Name, p.DataBase)
	}
	if n := Word(len(p.Data)); n > 0 && p.DataBase+n < p.DataBase {
		return fail("program %q data segment [%d, +%d words) wraps the address space", p.Name, p.DataBase, n)
	}
	return nil
}
