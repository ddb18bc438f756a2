// Package guestgen generates random guest programs for differential
// testing: small multi-threaded images, built through internal/asm, that
// always terminate and never deadlock, yet reach the corners an
// interpreter can get wrong — every plain opcode with operands that
// sometimes divide by zero or shift by 64 and more, counted loops, nested
// and occasionally overflowing calls, loads and stores that straddle page
// boundaries and alias in mem's direct-mapped page cache, threads that
// meet at locks, a barrier and atomics, and a few syscalls.
//
// A program is a pure function of the bytes it is generated from: each
// decision consumes one byte, and once they run out a generator seeded by
// their hash takes over. That makes Generate a natural body for a native
// fuzz target (the engine's mutations change individual decisions) and
// for plain seeded tests alike.
//
// Termination and deadlock freedom are by construction: every loop is
// counted on a register its body never names; calls go down a fixed order
// of leaf functions or into a recursion on an explicit depth; locks are
// taken one at a time around straight-line code; and nothing that can
// fault — an unguarded division, a recursion deeper than the frame limit —
// is placed inside a critical section or ahead of a barrier its thread
// still owes an arrival to.
package guestgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"doubleplay/internal/asm"
	"doubleplay/internal/mem"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// word aliases the guest word type.
type word = vm.Word

// Guest is one generated program and what is needed to run it.
type Guest struct {
	Prog *vm.Program
	// Workers is the number of threads main spawns.
	Workers int
	// Disciplined reports that the program is race-free by construction:
	// every word two threads can reach is either guarded by one lock,
	// touched only by cas/fadd, or handed over by spawn/join. A program
	// that is not carries at least one unlocked read-modify-write of a
	// shared word.
	Disciplined bool
	// MayFault reports that the program contains an unguarded division or
	// a recursion past the frame limit, so a thread may fault — whether
	// one does can depend on the schedule and on syscall results.
	MayFault bool

	worldSeed int64
}

// World returns a fresh simulated world for one run of the guest: the
// PRNG seed and the one input file the program may read.
func (g *Guest) World() *simos.World {
	w := simos.NewWorld(g.worldSeed)
	data := make([]word, 40)
	for i := range data {
		data[i] = word(i)*2654435761 ^ g.worldSeed
	}
	w.AddFile(inputFile, data)
	return w
}

const (
	inputFile = "in"

	// Each thread owns the words [privBase + k<<privShift, +1<<privShift):
	// thread-private, so unordered accesses to them are not races.
	privBase  word = 1 << 24
	privShift      = 20

	barrierID = 7
	lockBase  = 100 // lock lockBase+j guards the j-th locked word

	numLocked = 3
	numAtoms  = 2
	numTemps  = 6
	maxLoops  = 10 // per function: each costs two registers

	// Estimated instructions one invocation may retire, so that nested
	// loops around nested calls cannot multiply into a long-running guest.
	leafBudget   = 300
	recCost      = 12 // instructions per level of rec
	threadBudget = 15000
)

// dice turns the input bytes, then a PRNG seeded from them, into choices.
type dice struct {
	data []byte
	rng  *rand.Rand
}

func newDice(data []byte) *dice {
	h := fnv.New64a()
	h.Write(data)
	return &dice{data: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// n returns a choice in [0, k), k ≤ 256.
func (d *dice) n(k int) int {
	if len(d.data) > 0 {
		b := d.data[0]
		d.data = d.data[1:]
		return int(b) % k
	}
	return d.rng.Intn(k)
}

func (d *dice) chance(percent int) bool { return d.n(100) < percent }

// word returns an operand value biased towards the interesting ones.
func (d *dice) word() word {
	switch d.n(10) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return -1
	case 3:
		return 64 + word(d.n(200)) // a shift count the machine must mask
	case 4:
		return math.MinInt64
	case 5:
		return math.MaxInt64
	case 6:
		return word(d.rng.Uint64())
	default:
		return word(d.n(256)) - 16
	}
}

// privOffset returns an offset into a thread's private region: next to
// the region's first page boundary, on one of four pages that share a
// slot of mem's 64-entry direct-mapped page cache, or plain small.
func (d *dice) privOffset() word {
	switch d.n(3) {
	case 0:
		return mem.PageWords - 2 + word(d.n(4))
	case 1:
		return word(d.n(4))*64*mem.PageWords + word(d.n(8))
	default:
		return word(d.n(16))
	}
}

type gen struct {
	d      *dice
	b      *asm.Builder
	g      *Guest
	leaves []string // leaf i may call leaves[i+1:]
	weight []int    // weight[i] is leaf i's estimated cost

	locked, atoms, racy, out word

	racePercent int // how many of the would-be races are emitted as such
}

// Generate builds the guest that data describes.
func Generate(data []byte) *Guest { return generate(data, 15) }

// GenerateRacy builds the guest Generate builds, except that most of the
// places where Generate rarely puts an unlocked read-modify-write of the
// shared word get one: the same shapes, racing much more often.
func GenerateRacy(data []byte) *Guest { return generate(data, 85) }

func generate(data []byte, racePercent int) *Guest {
	d := newDice(data)
	g := &gen{d: d, b: asm.NewBuilder("guestgen"), g: &Guest{Disciplined: true}, racePercent: racePercent}
	g.g.Workers = 1 + d.n(4)
	g.g.worldSeed = int64(d.n(256))
	g.locked = g.b.Zeros(numLocked)
	g.atoms = g.b.Zeros(numAtoms)
	g.racy = g.b.Zeros(1)
	g.out = g.b.Zeros(g.g.Workers + 1)

	nLeaves := 1 + d.n(3)
	for i := 0; i < nLeaves; i++ {
		g.leaves = append(g.leaves, fmt.Sprintf("leaf%d", i))
	}
	g.weight = make([]int, nLeaves)
	// Last leaf first: a caller budgets a call by its callee's weight.
	for i := nLeaves - 1; i >= 0; i-- {
		g.leaf(i)
	}
	g.rec()
	g.worker()
	g.main()
	g.b.SetEntry("main")
	g.g.Prog = g.b.MustBuild()
	return g.g
}

// fn is one function under generation: its temporaries, its scratch
// registers, and what the current position allows.
type fn struct {
	*asm.Func
	g    *gen
	t    []asm.Reg // temporaries every statement draws operands from
	priv asm.Reg   // base of the running thread's private region
	addr asm.Reg   // scratch: a shared address or lock id
	v, c asm.Reg   // scratch: a loaded value, a condition

	loops    int  // loops still affordable in registers
	mult     int  // product of the enclosing loops' trip counts
	cost     int  // estimated instructions one invocation retires so far
	limit    int  // cost beyond which only cheap statements are emitted
	leafFrom int  // may call leaves[leafFrom:]
	sync     bool // may take locks, use atomics and issue syscalls
	mayFault bool // may execute something that faults the thread
	racy     bool // may touch the unguarded shared word
}

func (g *gen) newFn(name string, nargs int) *fn {
	f := &fn{Func: g.b.Func(name, nargs), g: g, loops: maxLoops, mult: 1, limit: threadBudget}
	f.t = f.Regs(numTemps)
	f.priv, f.addr, f.v, f.c = f.Reg(), f.Reg(), f.Reg(), f.Reg()
	return f
}

func (f *fn) tmp() asm.Reg { return f.t[f.g.d.n(len(f.t))] }

// initTemps loads the temporaries; mixing in seed (a register) keeps
// threads of one program from computing the same values.
func (f *fn) initTemps(seed asm.Reg) {
	for _, r := range f.t {
		f.Movi(r, f.g.d.word())
	}
	f.Add(f.t[0], f.t[0], seed)
}

// leaf i: a function of (a, b, priv) made of plain statements only.
func (g *gen) leaf(i int) {
	f := g.newFn(g.leaves[i], 3)
	f.leafFrom, f.limit = i+1, leafBudget
	f.Mov(f.priv, f.Arg(2))
	f.initTemps(f.Arg(0))
	f.Xor(f.t[1], f.t[1], f.Arg(1))
	f.block(1, 2+g.d.n(5))
	f.Ret(f.tmp())
	g.weight[i] = f.cost + 2*numTemps
}

// rec(d, priv) recurses d deep, touching private memory on the way down
// and adding on the way up; d beyond the frame limit overflows the stack.
func (g *gen) rec() {
	f := g.b.Func("rec", 2)
	d, priv := f.Arg(0), f.Arg(1)
	r := f.Reg()
	f.IfZ(d, func() { f.RetImm(1) })
	f.Stx(priv, d, d)
	f.Addi(r, d, -1)
	f.Call("rec", r, priv)
	f.Ldx(r, priv, d)
	f.Add(r, r, asm.RetReg)
	f.Ret(r)
}

func (g *gen) worker() {
	f := g.newFn("worker", 1)
	k := f.Arg(0)
	f.privFor(k)
	f.initTemps(k)
	f.sync, f.racy = true, true

	// Nothing ahead of a barrier may fault: the others would wait forever.
	f.block(0, 3+g.d.n(8))
	for n := g.d.n(3); n > 0; n-- {
		id, count := f.Reg(), f.Reg()
		f.Movi(id, barrierID)
		f.Movi(count, word(g.g.Workers))
		f.Barrier(id, count)
		f.block(0, 1+g.d.n(4))
	}
	f.mayFault = true
	f.block(0, 3+g.d.n(8))

	f.Movi(f.addr, g.out)
	f.Stx(f.addr, k, f.tmp())
	f.Halt(f.tmp())
}

func (g *gen) main() {
	f := g.newFn("main", 0)
	w := g.g.Workers
	self := f.Reg()
	f.Movi(self, word(w))
	f.privFor(self)
	f.initTemps(self)
	f.sync = true
	f.block(0, 1+g.d.n(4))

	tids, arg := f.Regs(w), f.Reg()
	for k := 0; k < w; k++ {
		f.Movi(arg, word(k))
		f.Spawn(tids[k], "worker", arg)
	}
	f.block(0, 1+g.d.n(4)) // concurrently with the workers
	for k := 0; k < w; k++ {
		f.Join(tids[k])
	}

	// Everything the workers shared is main's to read after the joins.
	sum := f.t[0]
	for _, base := range []struct {
		addr word
		n    int
	}{{g.locked, numLocked}, {g.atoms, numAtoms}, {g.racy, 1}, {g.out, w + 1}} {
		f.Movi(f.addr, base.addr)
		for i := 0; i < base.n; i++ {
			f.Ld(f.v, f.addr, word(i))
			f.Xor(sum, sum, f.v)
		}
	}
	f.Halt(sum)
}

// privFor sets priv to thread-index register k's private region.
func (f *fn) privFor(k asm.Reg) {
	f.Shli(f.priv, k, privShift)
	f.Addi(f.priv, f.priv, privBase)
}

// block emits n statements at loop-nesting depth.
func (f *fn) block(depth, n int) {
	for ; n > 0; n-- {
		f.stmt(depth)
	}
}

var (
	binOps = []func(f *asm.Func, d, a, b asm.Reg){
		(*asm.Func).Add, (*asm.Func).Sub, (*asm.Func).Mul, (*asm.Func).And, (*asm.Func).Or,
		(*asm.Func).Xor, (*asm.Func).Shl, (*asm.Func).Shr,
		(*asm.Func).Slt, (*asm.Func).Sle, (*asm.Func).Seq, (*asm.Func).Sne,
	}
	immOps = []func(f *asm.Func, d, a asm.Reg, v word){
		(*asm.Func).Addi, (*asm.Func).Muli, (*asm.Func).Andi, (*asm.Func).Ori, (*asm.Func).Xori,
		(*asm.Func).Shli, (*asm.Func).Shri,
		(*asm.Func).Slti, (*asm.Func).Slei, (*asm.Func).Seqi, (*asm.Func).Snei,
	}
	divOps    = []func(f *asm.Func, d, a, b asm.Reg){(*asm.Func).Div, (*asm.Func).Mod}
	divImmOps = []func(f *asm.Func, d, a asm.Reg, v word){(*asm.Func).Divi, (*asm.Func).Modi}
)

// spend charges n instructions per trip of the enclosing loops and
// reports whether the function's budget still covers them.
func (f *fn) spend(n int) bool {
	if f.cost+f.mult*n > f.limit {
		return false
	}
	f.cost += f.mult * n
	return true
}

// stmt emits one statement.
func (f *fn) stmt(depth int) {
	d := f.g.d
	if !f.spend(12) { // what the dearest straight-line statement retires
		f.Movi(f.tmp(), d.word())
		return
	}
	switch d.n(20) {
	case 0, 1, 2:
		binOps[d.n(len(binOps))](f.Func, f.tmp(), f.tmp(), f.tmp())
	case 3, 4:
		immOps[d.n(len(immOps))](f.Func, f.tmp(), f.tmp(), d.word())
	case 5:
		f.divide()
	case 6:
		switch d.n(6) {
		case 0:
			f.Nop()
		case 1:
			f.Mov(f.tmp(), f.tmp())
		case 2:
			f.Movi(f.tmp(), d.word())
		case 3:
			f.Neg(f.tmp(), f.tmp())
		case 4:
			f.Not(f.tmp(), f.tmp())
		default:
			f.Tid(f.tmp())
		}
	case 7, 8, 9:
		f.private()
	case 10, 11:
		f.branch(depth)
	case 12, 13:
		f.loop(depth)
	case 14, 15:
		f.call()
	default:
		if !f.sync {
			f.private()
			return
		}
		switch d.n(5) {
		case 0, 1:
			f.critical()
		case 2:
			f.atomic()
		case 3:
			f.syscall()
		default:
			f.race()
		}
	}
}

// divide emits a division. Where the thread may fault the divisor is
// whatever a temporary holds (sometimes zero) or a literal that is
// sometimes zero; elsewhere it is forced odd or non-zero first.
func (f *fn) divide() {
	d := f.g.d
	if d.chance(50) {
		imm := d.word()
		if imm == 0 {
			if f.mayFault {
				f.g.g.MayFault = true
			} else {
				imm = 3
			}
		}
		divImmOps[d.n(2)](f.Func, f.tmp(), f.tmp(), imm)
		return
	}
	div := f.tmp()
	if f.mayFault {
		f.g.g.MayFault = true
	} else {
		f.Ori(f.c, div, 1)
		div = f.c
	}
	divOps[d.n(2)](f.Func, f.tmp(), f.tmp(), div)
}

// private emits a load or store in the thread's own region.
func (f *fn) private() {
	d := f.g.d
	if d.chance(50) {
		off := d.privOffset()
		if d.chance(50) {
			f.Ld(f.tmp(), f.priv, off)
		} else {
			f.St(f.priv, off, f.tmp())
		}
		return
	}
	// Indexed: any temporary, folded into the first two pages so that it
	// walks across their boundary.
	f.Andi(f.c, f.tmp(), 2*mem.PageWords-1)
	if d.chance(50) {
		f.Ldx(f.tmp(), f.priv, f.c)
	} else {
		f.Stx(f.priv, f.c, f.tmp())
	}
}

func (f *fn) branch(depth int) {
	d := f.g.d
	n := 1 + d.n(3)
	switch d.n(3) {
	case 0:
		f.IfNz(f.tmp(), func() { f.block(depth, n) })
	case 1:
		f.IfZ(f.tmp(), func() { f.block(depth, n) })
	default:
		f.IfElse(f.tmp(), func() { f.block(depth, n) }, func() { f.block(depth, 1+d.n(2)) })
	}
}

func (f *fn) loop(depth int) {
	if depth >= 2 || f.loops == 0 {
		f.private()
		return
	}
	f.loops--
	d := f.g.d
	i := f.Reg()
	trip := 1 + d.n(12)
	f.Movi(i, 0)
	f.mult *= trip
	f.ForLtImm(i, word(trip), func() { f.block(depth+1, 1+d.n(4)) })
	f.mult /= trip
}

// call emits a call to a later leaf or into the recursion; a recursion
// past the frame limit only where the thread may fault.
func (f *fn) call() {
	d := f.g.d
	dst := f.tmp()
	if f.leafFrom < len(f.g.leaves) && d.chance(60) {
		i := f.leafFrom + d.n(len(f.g.leaves)-f.leafFrom)
		if !f.spend(f.g.weight[i]) {
			return
		}
		f.Call(f.g.leaves[i], f.tmp(), f.tmp(), f.priv)
	} else {
		depth := 1 + d.n(24)
		if !f.spend(recCost * depth) {
			return
		}
		if f.mayFault && d.chance(8) {
			depth = 600 // faults at the frame limit, so costs no more than that
			f.g.g.MayFault = true
		}
		f.Movi(f.c, word(depth))
		f.Call("rec", f.c, f.priv)
	}
	f.Mov(dst, asm.RetReg)
}

// critical updates one shared word under its lock.
func (f *fn) critical() {
	j := word(f.g.d.n(numLocked))
	f.Movi(f.c, lockBase+j)
	f.Movi(f.addr, f.g.locked+j)
	f.LockR(f.c)
	f.Ld(f.v, f.addr, 0)
	binOps[f.g.d.n(6)](f.Func, f.v, f.v, f.tmp())
	f.St(f.addr, 0, f.v)
	f.UnlockR(f.c)
}

func (f *fn) atomic() {
	d := f.g.d
	f.Movi(f.addr, f.g.atoms+word(d.n(numAtoms)))
	if d.chance(50) {
		f.Fadd(f.tmp(), f.addr, f.tmp())
	} else {
		f.Cas(f.tmp(), f.addr, f.tmp(), f.tmp())
	}
}

func (f *fn) syscall() {
	d := f.g.d
	dst := f.tmp()
	switch d.n(6) {
	case 0:
		f.Sys(simos.SysRand)
	case 1:
		f.Sys(simos.SysTime)
	case 2:
		f.Sys(simos.SysYield)
	case 3:
		f.Movi(f.c, word(1+d.n(64)))
		f.Sys(simos.SysAlloc, f.c)
		f.St(asm.RetReg, 0, f.tmp()) // the allocation is this thread's alone
	case 4:
		f.Addi(f.v, f.priv, d.privOffset())
		f.Movi(f.c, word(d.n(6)))
		f.Sys(simos.SysPrint, f.v, f.c)
	default:
		// Open the input file and read it across a private page edge: a
		// syscall whose result is guest-memory writes.
		f.spend(24)
		name := simos.EncodeString(inputFile)
		for i, ch := range name {
			f.Movi(f.c, ch)
			f.St(f.priv, 64+word(i), f.c)
		}
		f.Addi(f.v, f.priv, 64)
		f.Movi(f.c, word(len(name)))
		f.Sys(simos.SysOpen, f.v, f.c)
		fd := f.addr
		f.Mov(fd, asm.RetReg)
		f.Addi(f.v, f.priv, mem.PageWords-3)
		f.Movi(f.c, word(1+d.n(12)))
		f.Sys(simos.SysRead, fd, f.v, f.c)
		f.Mov(dst, asm.RetReg)
		f.Sys(simos.SysClose, fd)
		return
	}
	f.Mov(dst, asm.RetReg)
}

// race emits, rarely unless the generator was asked otherwise, an unlocked
// read-modify-write of a shared word — the one construct that makes a
// program undisciplined.
func (f *fn) race() {
	if !f.racy || !f.g.d.chance(f.g.racePercent) {
		f.atomic()
		return
	}
	f.g.g.Disciplined = false
	f.Movi(f.addr, f.g.racy)
	f.Ld(f.v, f.addr, 0)
	f.Add(f.v, f.v, f.tmp())
	f.St(f.addr, 0, f.v)
}
