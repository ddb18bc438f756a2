// Package asm is the program builder for the simulator's ISA: a structured
// assembler with functions, labels, register allocation, data-segment
// layout, and control-flow helpers (While/ForLt/IfElse). All guest
// workloads in this repository are authored against this package and
// compiled to vm.Program images.
package asm

import (
	"fmt"
	"slices"

	"doubleplay/internal/vm"
)

// Word aliases the guest word type.
type Word = vm.Word

// Reg names a guest register. r0 is the call return value; a callee's
// arguments arrive in r1..r6; r9 and up are allocatable temporaries. The
// top registers stage call/syscall arguments: CALL and SYS read their
// arguments from r58..r63, so emitting a call never disturbs the caller's
// own registers (including its incoming arguments).
type Reg uint8

const (
	// RetReg receives function results.
	RetReg Reg = 0
	// firstTemp is the first allocatable register.
	firstTemp = 9
	// stageBase..stageBase+5 stage call/syscall arguments.
	stageBase = vm.ArgStageBase
)

// DefaultDataBase is where the data segment is loaded unless overridden.
const DefaultDataBase Word = 1 << 20

// Builder accumulates functions and data and produces a vm.Program.
type Builder struct {
	name     string
	funcs    []*Func
	byName   map[string]*Func
	data     []piece // the data segment's non-zero stretches, in order
	dataLen  int     // the data segment's length in words
	dataBase Word
	entry    string
	errs     []error
}

// piece is a stretch of the data segment at word offset at: vals, or a
// string's characters one per word. The words no piece covers are zero.
type piece struct {
	at   int
	vals []Word
	str  string
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]*Func), dataBase: DefaultDataBase}
}

// SetEntry selects the main function by name; defaults to the first
// function defined.
func (b *Builder) SetEntry(name string) { b.entry = name }

// errf records a build error; Build reports the first one.
func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Words appends values to the data segment and returns their guest
// address. Words keeps vals, without copying it, until Build copies it into
// the program: the caller must not change vals before then.
func (b *Builder) Words(vals ...Word) Word {
	addr := b.dataBase + Word(b.dataLen)
	if slices.ContainsFunc(vals, func(v Word) bool { return v != 0 }) {
		b.data = append(b.data, piece{at: b.dataLen, vals: vals})
	}
	b.dataLen += len(vals)
	return addr
}

// Zeros reserves n zeroed words in the data segment.
func (b *Builder) Zeros(n int) Word {
	addr := b.dataBase + Word(b.dataLen)
	b.dataLen += n
	return addr
}

// Str stores a string one character per word and returns (address, length).
func (b *Builder) Str(s string) (Word, Word) {
	addr := b.dataBase + Word(b.dataLen)
	b.data = append(b.data, piece{at: b.dataLen, str: s})
	b.dataLen += len(s)
	return addr, Word(len(s))
}

// Func begins a function with nargs arguments (available as Arg(0..n-1)).
func (b *Builder) Func(name string, nargs int) *Func {
	if _, dup := b.byName[name]; dup {
		b.errf("asm: duplicate function %q", name)
	}
	if nargs > vm.MaxArgs {
		b.errf("asm: function %q has %d args; max %d", name, nargs, vm.MaxArgs)
	}
	f := &Func{
		b:       b,
		name:    name,
		nargs:   nargs,
		labels:  make(map[string]int),
		nextReg: firstTemp,
	}
	b.funcs = append(b.funcs, f)
	b.byName[name] = f
	return f
}

type labelFixup struct {
	idx   int // instruction index within the function
	label string
}

type callFixup struct {
	idx int
	fn  string
}

// Func is a function under construction.
type Func struct {
	b       *Builder
	name    string
	nargs   int
	code    []vm.Instr
	labels  map[string]int
	lfix    []labelFixup
	cfix    []callFixup
	nextReg int
	nlabels int
	closed  bool
}

// Arg returns the register holding argument i.
func (f *Func) Arg(i int) Reg {
	if i < 0 || i >= f.nargs {
		f.b.errf("asm: %s: Arg(%d) of %d-arg function", f.name, i, f.nargs)
		return RetReg
	}
	return Reg(1 + i)
}

// Reg allocates a fresh temporary register.
func (f *Func) Reg() Reg {
	if f.nextReg >= stageBase {
		f.b.errf("asm: %s: out of registers", f.name)
		return Reg(stageBase - 1)
	}
	r := Reg(f.nextReg)
	f.nextReg++
	return r
}

// Regs allocates n fresh temporaries.
func (f *Func) Regs(n int) []Reg {
	out := make([]Reg, n)
	for i := range out {
		out[i] = f.Reg()
	}
	return out
}

// Const allocates a register and loads an immediate into it.
func (f *Func) Const(v Word) Reg {
	r := f.Reg()
	f.Movi(r, v)
	return r
}

func (f *Func) emit(in vm.Instr) int {
	f.code = append(f.code, in)
	return len(f.code) - 1
}

// Label defines a named position at the current point.
func (f *Func) Label(name string) {
	if _, dup := f.labels[name]; dup {
		f.b.errf("asm: %s: duplicate label %q", f.name, name)
	}
	f.labels[name] = len(f.code)
}

// NewLabel generates a unique label name without defining it.
func (f *Func) NewLabel() string {
	f.nlabels++
	return fmt.Sprintf(".L%d", f.nlabels)
}

// --- data movement and arithmetic -----------------------------------------

func (f *Func) Nop()               { f.emit(vm.Instr{Op: vm.OpNop}) }
func (f *Func) Movi(d Reg, v Word) { f.emit(vm.Instr{Op: vm.OpMovi, A: uint8(d), Imm: v}) }
func (f *Func) Mov(d, s Reg)       { f.emit(vm.Instr{Op: vm.OpMov, A: uint8(d), B: uint8(s)}) }

func (f *Func) bin(op vm.Opcode, d, a, b Reg) {
	f.emit(vm.Instr{Op: op, A: uint8(d), B: uint8(a), C: uint8(b)})
}
func (f *Func) binImm(op vm.Opcode, d, a Reg, v Word) {
	f.emit(vm.Instr{Op: op, A: uint8(d), B: uint8(a), Imm: v})
}

func (f *Func) Add(d, a, b Reg) { f.bin(vm.OpAdd, d, a, b) }
func (f *Func) Sub(d, a, b Reg) { f.bin(vm.OpSub, d, a, b) }
func (f *Func) Mul(d, a, b Reg) { f.bin(vm.OpMul, d, a, b) }
func (f *Func) Div(d, a, b Reg) { f.bin(vm.OpDiv, d, a, b) }
func (f *Func) Mod(d, a, b Reg) { f.bin(vm.OpMod, d, a, b) }
func (f *Func) And(d, a, b Reg) { f.bin(vm.OpAnd, d, a, b) }
func (f *Func) Or(d, a, b Reg)  { f.bin(vm.OpOr, d, a, b) }
func (f *Func) Xor(d, a, b Reg) { f.bin(vm.OpXor, d, a, b) }
func (f *Func) Shl(d, a, b Reg) { f.bin(vm.OpShl, d, a, b) }
func (f *Func) Shr(d, a, b Reg) { f.bin(vm.OpShr, d, a, b) }

func (f *Func) Addi(d, a Reg, v Word) { f.binImm(vm.OpAddi, d, a, v) }
func (f *Func) Muli(d, a Reg, v Word) { f.binImm(vm.OpMuli, d, a, v) }
func (f *Func) Divi(d, a Reg, v Word) { f.binImm(vm.OpDivi, d, a, v) }
func (f *Func) Modi(d, a Reg, v Word) { f.binImm(vm.OpModi, d, a, v) }
func (f *Func) Andi(d, a Reg, v Word) { f.binImm(vm.OpAndi, d, a, v) }
func (f *Func) Ori(d, a Reg, v Word)  { f.binImm(vm.OpOri, d, a, v) }
func (f *Func) Xori(d, a Reg, v Word) { f.binImm(vm.OpXori, d, a, v) }
func (f *Func) Shli(d, a Reg, v Word) { f.binImm(vm.OpShli, d, a, v) }
func (f *Func) Shri(d, a Reg, v Word) { f.binImm(vm.OpShri, d, a, v) }

func (f *Func) Neg(d, a Reg) { f.emit(vm.Instr{Op: vm.OpNeg, A: uint8(d), B: uint8(a)}) }
func (f *Func) Not(d, a Reg) { f.emit(vm.Instr{Op: vm.OpNot, A: uint8(d), B: uint8(a)}) }

func (f *Func) Slt(d, a, b Reg) { f.bin(vm.OpSlt, d, a, b) }
func (f *Func) Sle(d, a, b Reg) { f.bin(vm.OpSle, d, a, b) }
func (f *Func) Seq(d, a, b Reg) { f.bin(vm.OpSeq, d, a, b) }
func (f *Func) Sne(d, a, b Reg) { f.bin(vm.OpSne, d, a, b) }

func (f *Func) Slti(d, a Reg, v Word) { f.binImm(vm.OpSlti, d, a, v) }
func (f *Func) Slei(d, a Reg, v Word) { f.binImm(vm.OpSlei, d, a, v) }
func (f *Func) Seqi(d, a Reg, v Word) { f.binImm(vm.OpSeqi, d, a, v) }
func (f *Func) Snei(d, a Reg, v Word) { f.binImm(vm.OpSnei, d, a, v) }

// --- memory ----------------------------------------------------------------

// Ld loads d = mem[base+off].
func (f *Func) Ld(d, base Reg, off Word) {
	f.emit(vm.Instr{Op: vm.OpLd, A: uint8(d), B: uint8(base), Imm: off})
}

// St stores mem[base+off] = src.
func (f *Func) St(base Reg, off Word, src Reg) {
	f.emit(vm.Instr{Op: vm.OpSt, A: uint8(src), B: uint8(base), Imm: off})
}

// Ldx loads d = mem[base+idx].
func (f *Func) Ldx(d, base, idx Reg) {
	f.emit(vm.Instr{Op: vm.OpLdx, A: uint8(d), B: uint8(base), C: uint8(idx)})
}

// Stx stores mem[base+idx] = src.
func (f *Func) Stx(base, idx, src Reg) {
	f.emit(vm.Instr{Op: vm.OpStx, A: uint8(src), B: uint8(base), C: uint8(idx)})
}

// --- synchronisation and threads -------------------------------------------

func (f *Func) LockR(id Reg)   { f.emit(vm.Instr{Op: vm.OpLock, A: uint8(id)}) }
func (f *Func) UnlockR(id Reg) { f.emit(vm.Instr{Op: vm.OpUnlock, A: uint8(id)}) }

// Barrier emits an arrive/wait pair: the thread announces arrival at
// barrier id, then blocks until count threads have arrived. A scratch
// register is allocated once per call site to carry the awaited generation.
func (f *Func) Barrier(id, count Reg) {
	gen := f.Reg()
	f.emit(vm.Instr{Op: vm.OpBarArrive, A: uint8(gen), B: uint8(id), C: uint8(count)})
	f.emit(vm.Instr{Op: vm.OpBarWait, A: uint8(gen), B: uint8(id)})
}

// Cas performs d = CAS(mem[addr], old, new).
func (f *Func) Cas(d, addr, old, new Reg) {
	f.emit(vm.Instr{Op: vm.OpCas, A: uint8(d), B: uint8(addr), C: uint8(old), D: uint8(new)})
}

// Fadd performs d = fetch-and-add(mem[addr], delta).
func (f *Func) Fadd(d, addr, delta Reg) {
	f.emit(vm.Instr{Op: vm.OpFadd, A: uint8(d), B: uint8(addr), C: uint8(delta)})
}

// Spawn starts fn in a new thread with its r1 = arg; d receives the tid.
func (f *Func) Spawn(d Reg, fn string, arg Reg) {
	idx := f.emit(vm.Instr{Op: vm.OpSpawn, A: uint8(d), B: uint8(arg)})
	f.cfix = append(f.cfix, callFixup{idx: idx, fn: fn})
}

// Join blocks until thread d exits; d receives its exit value.
func (f *Func) Join(d Reg) { f.emit(vm.Instr{Op: vm.OpJoin, A: uint8(d)}) }

// Tid sets d to the current thread id.
func (f *Func) Tid(d Reg) { f.emit(vm.Instr{Op: vm.OpTid, A: uint8(d)}) }

// SigHandler installs fn as this thread's asynchronous signal handler. The
// handler runs with the signal number in Arg(0) and returns with Ret; the
// interrupted context resumes exactly. Spawned children inherit the
// handler.
func (f *Func) SigHandler(fn string) {
	idx := f.emit(vm.Instr{Op: vm.OpSigH})
	f.cfix = append(f.cfix, callFixup{idx: idx, fn: fn})
}

// --- calls, syscalls, control ----------------------------------------------

// stage moves argument values into the staging registers the machine reads
// call and syscall arguments from. Caller registers r1..r6 are untouched.
func (f *Func) stage(args []Reg) {
	if len(args) > vm.MaxArgs {
		f.b.errf("asm: %s: too many arguments (%d)", f.name, len(args))
		return
	}
	for i, a := range args {
		f.Mov(Reg(stageBase+i), a)
	}
}

// Call invokes fn with the given arguments; the result is in r0 (RetReg).
func (f *Func) Call(fn string, args ...Reg) {
	f.stage(args)
	idx := f.emit(vm.Instr{Op: vm.OpCall})
	f.cfix = append(f.cfix, callFixup{idx: idx, fn: fn})
}

// Sys issues syscall num with the given arguments; the result is in r0.
func (f *Func) Sys(num Word, args ...Reg) {
	f.stage(args)
	f.emit(vm.Instr{Op: vm.OpSys, Imm: num})
}

// Ret returns r to the caller.
func (f *Func) Ret(r Reg) { f.emit(vm.Instr{Op: vm.OpRet, A: uint8(r)}) }

// RetImm returns a constant.
func (f *Func) RetImm(v Word) {
	f.Movi(Reg(stageBase), v)
	f.Ret(Reg(stageBase))
}

// Halt exits the thread with value r.
func (f *Func) Halt(r Reg) { f.emit(vm.Instr{Op: vm.OpHalt, A: uint8(r)}) }

// HaltImm exits the thread with a constant value.
func (f *Func) HaltImm(v Word) {
	f.Movi(Reg(stageBase), v)
	f.Halt(Reg(stageBase))
}

// Jump emits an unconditional jump to label.
func (f *Func) Jump(label string) {
	idx := f.emit(vm.Instr{Op: vm.OpJmp})
	f.lfix = append(f.lfix, labelFixup{idx: idx, label: label})
}

// Jz jumps to label when r == 0.
func (f *Func) Jz(r Reg, label string) {
	idx := f.emit(vm.Instr{Op: vm.OpJz, A: uint8(r)})
	f.lfix = append(f.lfix, labelFixup{idx: idx, label: label})
}

// Jnz jumps to label when r != 0.
func (f *Func) Jnz(r Reg, label string) {
	idx := f.emit(vm.Instr{Op: vm.OpJnz, A: uint8(r)})
	f.lfix = append(f.lfix, labelFixup{idx: idx, label: label})
}

// --- structured control flow ------------------------------------------------

// While runs body while the register returned by cond is non-zero. cond is
// re-emitted at the top of every iteration.
func (f *Func) While(cond func() Reg, body func()) {
	top, end := f.NewLabel(), f.NewLabel()
	f.Label(top)
	c := cond()
	f.Jz(c, end)
	body()
	f.Jump(top)
	f.Label(end)
}

// ForLt runs body while i < limit, incrementing i by 1 after each
// iteration. i must be initialised by the caller.
func (f *Func) ForLt(i, limit Reg, body func()) {
	top, end := f.NewLabel(), f.NewLabel()
	cmp := f.Reg()
	f.Label(top)
	f.Slt(cmp, i, limit)
	f.Jz(cmp, end)
	body()
	f.Addi(i, i, 1)
	f.Jump(top)
	f.Label(end)
}

// ForLtImm runs body for i from its current value while i < limit.
func (f *Func) ForLtImm(i Reg, limit Word, body func()) {
	top, end := f.NewLabel(), f.NewLabel()
	cmp := f.Reg()
	f.Label(top)
	f.Slti(cmp, i, limit)
	f.Jz(cmp, end)
	body()
	f.Addi(i, i, 1)
	f.Jump(top)
	f.Label(end)
}

// IfNz runs then when c != 0.
func (f *Func) IfNz(c Reg, then func()) {
	end := f.NewLabel()
	f.Jz(c, end)
	then()
	f.Label(end)
}

// IfZ runs then when c == 0.
func (f *Func) IfZ(c Reg, then func()) {
	end := f.NewLabel()
	f.Jnz(c, end)
	then()
	f.Label(end)
}

// IfElse branches on c.
func (f *Func) IfElse(c Reg, then, els func()) {
	elseL, end := f.NewLabel(), f.NewLabel()
	f.Jz(c, elseL)
	then()
	f.Jump(end)
	f.Label(elseL)
	els()
	f.Label(end)
}

// --- build -------------------------------------------------------------------

// Build lays out functions, resolves labels and call targets, and returns
// the executable program.
func (b *Builder) Build() (*vm.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.funcs) == 0 {
		return nil, fmt.Errorf("asm: program %q has no functions", b.name)
	}
	entryName := b.entry
	if entryName == "" {
		entryName = b.funcs[0].name
	}

	// The data segment is allocated once, at its final length.
	prog := &vm.Program{Name: b.name, DataBase: b.dataBase}
	if b.dataLen > 0 {
		prog.Data = make([]Word, b.dataLen)
		for _, p := range b.data {
			copy(prog.Data[p.at:], p.vals)
			for i := 0; i < len(p.str); i++ {
				prog.Data[p.at+i] = Word(p.str[i])
			}
		}
	}
	fnIndex := make(map[string]int, len(b.funcs))
	base := make([]int, len(b.funcs))
	for i, f := range b.funcs {
		fnIndex[f.name] = i
		base[i] = len(prog.Code)
		prog.Funcs = append(prog.Funcs, vm.FuncInfo{Name: f.name, Entry: len(prog.Code), NArgs: f.nargs})
		prog.Code = append(prog.Code, f.code...)
	}

	for i, f := range b.funcs {
		off := base[i]
		for _, fix := range f.lfix {
			target, ok := f.labels[fix.label]
			if !ok {
				return nil, fmt.Errorf("asm: %s: undefined label %q", f.name, fix.label)
			}
			prog.Code[off+fix.idx].Imm = Word(off + target)
		}
		for _, fix := range f.cfix {
			target, ok := fnIndex[fix.fn]
			if !ok {
				return nil, fmt.Errorf("asm: %s: call/spawn of undefined function %q", f.name, fix.fn)
			}
			prog.Code[off+fix.idx].Imm = Word(target)
		}
	}

	entry, ok := fnIndex[entryName]
	if !ok {
		return nil, fmt.Errorf("asm: entry function %q not defined", entryName)
	}
	prog.Entry = entry
	return prog, nil
}

// MustBuild builds or panics; intended for static workload definitions
// whose correctness is covered by tests.
func (b *Builder) MustBuild() *vm.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
