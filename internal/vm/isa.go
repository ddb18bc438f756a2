// Package vm implements the deterministic multiprocessor substrate that
// DoublePlay records and replays: a register-based bytecode machine with
// threads, shared word-addressed memory, locks, barriers, atomics, and a
// pluggable syscall layer.
//
// The VM stands in for the paper's real x86 SMP hardware plus kernel
// support. Everything the original system needed from the kernel — precise
// control over which thread runs each instruction, snapshotable thread
// state, syscall interception — is available here by construction, which is
// what makes deterministic uniparallel record/replay implementable in pure
// Go despite the Go runtime's nondeterministic goroutine scheduling.
package vm

import "fmt"

// Word is the unit of guest arithmetic and guest memory.
type Word = int64

// NumRegs is the size of each thread's register file. r0 holds function
// results; callees receive arguments in r1..r6, passed by the caller
// through the staging registers r58..r63 so that CALL and SYS never clobber
// the caller's own registers.
const NumRegs = 64

// ArgStageBase is the first staging register: CALL copies
// r[ArgStageBase..ArgStageBase+5] into the callee's r1..r6, and SYS reads
// its arguments from the same window.
const ArgStageBase = 58

// MaxArgs is the argument limit for CALL and SYS.
const MaxArgs = 6

// Opcode enumerates the instruction set.
type Opcode uint8

const (
	OpNop Opcode = iota

	// Data movement.
	OpMovi // rA = Imm
	OpMov  // rA = rB

	// Register-register arithmetic: rA = rB op rC.
	OpAdd
	OpSub
	OpMul
	OpDiv // guest fault on divide by zero
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // arithmetic shift right

	// Register-immediate arithmetic: rA = rB op Imm.
	OpAddi
	OpMuli
	OpDivi
	OpModi
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri

	// Unary: rA = op rB.
	OpNeg
	OpNot

	// Comparisons (1 or 0 into rA).
	OpSlt  // rA = rB <  rC
	OpSle  // rA = rB <= rC
	OpSeq  // rA = rB == rC
	OpSne  // rA = rB != rC
	OpSlti // rA = rB <  Imm
	OpSlei // rA = rB <= Imm
	OpSeqi // rA = rB == Imm
	OpSnei // rA = rB != Imm

	// Control flow.
	OpJmp  // pc = Imm
	OpJz   // if rA == 0 { pc = Imm }
	OpJnz  // if rA != 0 { pc = Imm }
	OpCall // call Funcs[Imm]; caller r1..r8 become callee args
	OpRet  // return rA to caller's r0

	// Memory.
	OpLd  // rA = mem[rB + Imm]
	OpSt  // mem[rB + Imm] = rA
	OpLdx // rA = mem[rB + rC]
	OpStx // mem[rB + rC] = rA

	// Synchronisation. Lock/barrier IDs and atomic addresses are guest
	// words; every retired operation is reported as a SyncEvent.
	//
	// Barriers are two instructions so that arrival is a *retiring*
	// operation and barrier state (arrival count, generation) is
	// architectural: OpBarArrive records the arrival — and releases the
	// generation if it is the last — then OpBarWait blocks until the
	// generation in rD is reached. This keeps mid-barrier checkpoints exact
	// and makes arrivals visible to the timeslice schedule log.
	OpLock      // acquire lock r[A]
	OpUnlock    // release lock r[A]
	OpBarArrive // rA = generation to wait for; barrier id r[B], count r[C]
	OpBarWait   // block until barrier r[B]'s generation reaches r[A]
	OpCas       // rA = (mem[rB] == rC ? (mem[rB] = rD; 1) : 0), atomic
	OpFadd      // rA = mem[rB]; mem[rB] += rC, atomic

	// Threads.
	OpSpawn // rA = new tid running Funcs[Imm] with child r1 = rB
	OpJoin  // block until thread r[A] exits; rA = its exit value

	// Environment.
	OpSys  // syscall Imm; args from the staging registers; result in r0
	OpTid  // rA = current thread id
	OpSigH // install Funcs[Imm] as this thread's signal handler
	OpHalt // thread exits with value rA
)

var opNames = [...]string{
	OpNop: "nop", OpMovi: "movi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddi: "addi", OpMuli: "muli", OpDivi: "divi", OpModi: "modi",
	OpAndi: "andi", OpOri: "ori", OpXori: "xori", OpShli: "shli", OpShri: "shri",
	OpNeg: "neg", OpNot: "not",
	OpSlt: "slt", OpSle: "sle", OpSeq: "seq", OpSne: "sne",
	OpSlti: "slti", OpSlei: "slei", OpSeqi: "seqi", OpSnei: "snei",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz", OpCall: "call", OpRet: "ret",
	OpLd: "ld", OpSt: "st", OpLdx: "ldx", OpStx: "stx",
	OpLock: "lock", OpUnlock: "unlock", OpBarArrive: "bar.arrive", OpBarWait: "bar.wait",
	OpCas: "cas", OpFadd: "fadd",
	OpSpawn: "spawn", OpJoin: "join",
	OpSys: "sys", OpTid: "tid", OpSigH: "sig.handler", OpHalt: "halt",
}

// String returns the mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Instr is one decoded instruction. A, B, C, D index registers; Imm is an
// immediate operand, branch target, function index, or syscall number
// depending on the opcode.
type Instr struct {
	Op         Opcode
	A, B, C, D uint8
	Imm        Word
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpHalt, OpRet:
		if in.Op == OpNop {
			return "nop"
		}
		return fmt.Sprintf("%s r%d", in.Op, in.A)
	case OpMovi, OpSlti, OpSlei, OpSeqi, OpSnei:
		if in.Op == OpMovi {
			return fmt.Sprintf("movi r%d, %d", in.A, in.Imm)
		}
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.A, in.B, in.Imm)
	case OpAddi, OpMuli, OpDivi, OpModi, OpAndi, OpOri, OpXori, OpShli, OpShri:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.A, in.B, in.Imm)
	case OpMov, OpNeg, OpNot:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.A, in.B)
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Imm)
	case OpJz, OpJnz:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.A, in.Imm)
	case OpCall:
		return fmt.Sprintf("call fn%d", in.Imm)
	case OpLd:
		return fmt.Sprintf("ld r%d, [r%d%+d]", in.A, in.B, in.Imm)
	case OpSt:
		return fmt.Sprintf("st [r%d%+d], r%d", in.B, in.Imm, in.A)
	case OpLdx:
		return fmt.Sprintf("ldx r%d, [r%d+r%d]", in.A, in.B, in.C)
	case OpStx:
		return fmt.Sprintf("stx [r%d+r%d], r%d", in.B, in.C, in.A)
	case OpLock, OpUnlock, OpTid:
		return fmt.Sprintf("%s r%d", in.Op, in.A)
	case OpBarArrive:
		return fmt.Sprintf("bar.arrive r%d, id=r%d, n=r%d", in.A, in.B, in.C)
	case OpBarWait:
		return fmt.Sprintf("bar.wait r%d, id=r%d", in.A, in.B)
	case OpCas:
		return fmt.Sprintf("cas r%d, [r%d], r%d, r%d", in.A, in.B, in.C, in.D)
	case OpFadd:
		return fmt.Sprintf("fadd r%d, [r%d], r%d", in.A, in.B, in.C)
	case OpSpawn:
		return fmt.Sprintf("spawn r%d, fn%d, r%d", in.A, in.Imm, in.B)
	case OpJoin:
		return fmt.Sprintf("join r%d", in.A)
	case OpSys:
		return fmt.Sprintf("sys %d", in.Imm)
	case OpSigH:
		return fmt.Sprintf("sig.handler fn%d", in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.A, in.B, in.C)
	}
}

// FuncInfo describes one guest function.
type FuncInfo struct {
	Name  string
	Entry int // index into Program.Code
	NArgs int
}

// Program is an executable guest image: code, function table, and an
// initial data segment loaded at DataBase when a machine is reset.
type Program struct {
	Name     string
	Code     []Instr
	Funcs    []FuncInfo
	Entry    int // index into Funcs of the main function
	Data     []Word
	DataBase Word
}

// FuncSpan returns the body of function i: the code range [start, end)
// from its entry up to the next greater entry, or the end of the code
// segment. Functions that share an entry share a body.
func (p *Program) FuncSpan(i int) (start, end int) {
	start, end = p.Funcs[i].Entry, len(p.Code)
	for _, f := range p.Funcs {
		if f.Entry > start && f.Entry < end {
			end = f.Entry
		}
	}
	return start, end
}

// FuncAt returns the function whose body (see FuncSpan) contains code
// index pc, for diagnostics; the lowest-indexed one owns a shared body.
// Returns nil if pc falls outside every body.
func (p *Program) FuncAt(pc int) *FuncInfo {
	for i := range p.Funcs {
		if start, end := p.FuncSpan(i); start <= pc && pc < end {
			return &p.Funcs[i]
		}
	}
	return nil
}
