package analyze

import (
	"fmt"
	"slices"
	"strings"

	"doubleplay/internal/vm"
)

// vkind classifies an abstract register value.
type vkind uint8

const (
	vConst vkind = iota // a single known word
	vTid                // the current thread id (from OpTid)
	vUnknown
)

// aval is an abstract register value. Registers are architecturally
// zeroed, so the bottom of the lattice is Const(0), not "uninitialized".
type aval struct {
	k vkind
	c vm.Word
}

func konst(c vm.Word) aval { return aval{k: vConst, c: c} }

var unknown = aval{k: vUnknown}

func meetVal(a, b aval) aval {
	if a == b {
		return a
	}
	return unknown
}

// foldBin evaluates a register-register ALU or comparison op when both
// inputs are known constants, mirroring Machine.Step exactly. Anything
// else (including faulting divisions) degrades to unknown.
func foldBin(op vm.Opcode, b, c aval) aval {
	if b.k != vConst || c.k != vConst {
		return unknown
	}
	x, y := b.c, c.c
	switch op {
	case vm.OpAdd:
		return konst(x + y)
	case vm.OpSub:
		return konst(x - y)
	case vm.OpMul:
		return konst(x * y)
	case vm.OpDiv:
		if y == 0 {
			return unknown
		}
		return konst(x / y)
	case vm.OpMod:
		if y == 0 {
			return unknown
		}
		return konst(x % y)
	case vm.OpAnd:
		return konst(x & y)
	case vm.OpOr:
		return konst(x | y)
	case vm.OpXor:
		return konst(x ^ y)
	case vm.OpShl:
		return konst(x << (uint64(y) & 63))
	case vm.OpShr:
		return konst(x >> (uint64(y) & 63))
	case vm.OpSlt:
		return konst(b2w(x < y))
	case vm.OpSle:
		return konst(b2w(x <= y))
	case vm.OpSeq:
		return konst(b2w(x == y))
	case vm.OpSne:
		return konst(b2w(x != y))
	}
	return unknown
}

// foldImm evaluates a register-immediate op on a known constant.
func foldImm(op vm.Opcode, b aval, imm vm.Word) aval {
	if b.k != vConst {
		return unknown
	}
	x := b.c
	switch op {
	case vm.OpAddi:
		return konst(x + imm)
	case vm.OpMuli:
		return konst(x * imm)
	case vm.OpDivi:
		if imm == 0 {
			return unknown
		}
		return konst(x / imm)
	case vm.OpModi:
		if imm == 0 {
			return unknown
		}
		return konst(x % imm)
	case vm.OpAndi:
		return konst(x & imm)
	case vm.OpOri:
		return konst(x | imm)
	case vm.OpXori:
		return konst(x ^ imm)
	case vm.OpShli:
		return konst(x << (uint64(imm) & 63))
	case vm.OpShri:
		return konst(x >> (uint64(imm) & 63))
	case vm.OpSlti:
		return konst(b2w(x < imm))
	case vm.OpSlei:
		return konst(b2w(x <= imm))
	case vm.OpSeqi:
		return konst(b2w(x == imm))
	case vm.OpSnei:
		return konst(b2w(x != imm))
	}
	return unknown
}

func b2w(b bool) vm.Word {
	if b {
		return 1
	}
	return 0
}

// lockCap bounds the unknown-lock counters so loop fixpoints converge.
const lockCap = 64

// lockset abstracts the locks a thread holds: a must-held and a may-held
// set of statically known lock ids, plus counters for locks acquired
// under non-constant ids. Only must-held known ids count as protection
// in the race screen; the may side exists to keep unlock-balance
// diagnostics honest on paths that merge.
type lockset struct {
	must   []vm.Word // sorted known ids held on every path
	may    []vm.Word // sorted known ids held on some path (superset of must)
	unk    int       // unknown-id locks held on every path
	mayUnk int       // unknown-id locks held on some path
}

// intersectWords returns the ids in both sorted sets, as a fresh slice.
func intersectWords(a, b []vm.Word) []vm.Word {
	return slices.DeleteFunc(slices.Clone(a), func(v vm.Word) bool { return !slices.Contains(b, v) })
}

// unionWords returns the ids in either sorted set, as a fresh sorted slice.
func unionWords(a, b []vm.Word) []vm.Word {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}

// acquire adds known lock id to both sets.
func (l lockset) acquire(id vm.Word) lockset {
	l.must = unionWords(l.must, []vm.Word{id})
	l.may = unionWords(l.may, []vm.Word{id})
	return l
}

// release removes known lock id from both sets.
func (l lockset) release(id vm.Word) lockset {
	held := func(v vm.Word) bool { return v == id }
	l.must = slices.DeleteFunc(slices.Clone(l.must), held)
	l.may = slices.DeleteFunc(slices.Clone(l.may), held)
	return l
}

func meetLocks(a, b lockset) lockset {
	return lockset{
		must:   intersectWords(a.must, b.must),
		may:    unionWords(a.may, b.may),
		unk:    min(a.unk, b.unk),
		mayUnk: max(a.mayUnk, b.mayUnk),
	}
}

func (l lockset) equal(o lockset) bool {
	return l.unk == o.unk && l.mayUnk == o.mayUnk &&
		slices.Equal(l.must, o.must) && slices.Equal(l.may, o.may)
}

// sameHeld compares only what is definitely held — the part that matters
// for entry/exit balance.
func (l lockset) sameHeld(o lockset) bool {
	return l.unk == o.unk && slices.Equal(l.must, o.must)
}

func (l lockset) empty() bool {
	return len(l.must) == 0 && len(l.may) == 0 && l.unk == 0 && l.mayUnk == 0
}

func (l lockset) String() string {
	if len(l.must) == 0 && l.unk == 0 {
		return "none"
	}
	parts := make([]string, 0, len(l.must)+1)
	for _, id := range l.must {
		parts = append(parts, fmt.Sprint(id))
	}
	if l.unk > 0 {
		parts = append(parts, fmt.Sprintf("+%d dynamic", l.unk))
	}
	return strings.Join(parts, ",")
}

// kidsCap saturates the live-children counter so spawn loops converge.
const kidsCap = 64

// absState is the abstract machine state at one program point within one
// analysis context: register values, held locks, and (for the initial
// thread) an upper bound on concurrently live children.
type absState struct {
	valid bool
	regs  [vm.NumRegs]aval
	lk    lockset
	kids  int
}

// meetInto merges src into dst at a control-flow join, reporting whether
// dst changed. Lockset slices are never mutated in place, so the shallow
// struct copy is safe.
func meetInto(dst, src *absState) bool {
	if !src.valid {
		return false
	}
	if !dst.valid {
		*dst = *src
		return true
	}
	changed := false
	for i := range dst.regs {
		if m := meetVal(dst.regs[i], src.regs[i]); m != dst.regs[i] {
			dst.regs[i] = m
			changed = true
		}
	}
	if m := meetLocks(dst.lk, src.lk); !m.equal(dst.lk) {
		dst.lk = m
		changed = true
	}
	if src.kids > dst.kids {
		dst.kids = src.kids
		changed = true
	}
	return changed
}
