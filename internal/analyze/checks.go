package analyze

import (
	"fmt"

	"doubleplay/internal/vm"
)

// regUses appends to buf the registers instruction in reads, including
// the implicit staging-window reads of Call and Sys (they keep
// argument-staging moves live).
func regUses(in vm.Instr, buf []uint8) []uint8 {
	switch in.Op {
	case vm.OpNop, vm.OpMovi, vm.OpJmp, vm.OpTid, vm.OpSigH:
	case vm.OpMov, vm.OpNeg, vm.OpNot:
		buf = append(buf, in.B)
	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpAnd, vm.OpOr,
		vm.OpXor, vm.OpShl, vm.OpShr, vm.OpSlt, vm.OpSle, vm.OpSeq, vm.OpSne:
		buf = append(buf, in.B, in.C)
	case vm.OpAddi, vm.OpMuli, vm.OpDivi, vm.OpModi, vm.OpAndi, vm.OpOri,
		vm.OpXori, vm.OpShli, vm.OpShri, vm.OpSlti, vm.OpSlei, vm.OpSeqi, vm.OpSnei:
		buf = append(buf, in.B)
	case vm.OpJz, vm.OpJnz, vm.OpRet, vm.OpLock, vm.OpUnlock, vm.OpJoin, vm.OpHalt:
		buf = append(buf, in.A)
	case vm.OpLd:
		buf = append(buf, in.B)
	case vm.OpSt:
		buf = append(buf, in.A, in.B)
	case vm.OpLdx:
		buf = append(buf, in.B, in.C)
	case vm.OpStx:
		buf = append(buf, in.A, in.B, in.C)
	case vm.OpBarArrive:
		buf = append(buf, in.B, in.C)
	case vm.OpBarWait:
		buf = append(buf, in.A, in.B)
	case vm.OpCas:
		buf = append(buf, in.B, in.C, in.D)
	case vm.OpFadd:
		buf = append(buf, in.B, in.C)
	case vm.OpSpawn:
		buf = append(buf, in.B)
	case vm.OpCall, vm.OpSys:
		for i := 0; i < vm.MaxArgs; i++ {
			buf = append(buf, uint8(vm.ArgStageBase+i))
		}
	}
	return buf
}

// regDef returns the register instruction in writes, if any.
func regDef(in vm.Instr) (uint8, bool) {
	switch in.Op {
	case vm.OpMovi, vm.OpMov, vm.OpNeg, vm.OpNot, vm.OpTid,
		vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpAnd, vm.OpOr,
		vm.OpXor, vm.OpShl, vm.OpShr, vm.OpSlt, vm.OpSle, vm.OpSeq, vm.OpSne,
		vm.OpAddi, vm.OpMuli, vm.OpDivi, vm.OpModi, vm.OpAndi, vm.OpOri,
		vm.OpXori, vm.OpShli, vm.OpShri, vm.OpSlti, vm.OpSlei, vm.OpSeqi, vm.OpSnei,
		vm.OpLd, vm.OpLdx, vm.OpBarArrive, vm.OpCas, vm.OpFadd, vm.OpSpawn, vm.OpJoin:
		return in.A, true
	case vm.OpCall, vm.OpSys:
		return 0, true // result register
	}
	return 0, false
}

// pureDef reports whether in's only effect is writing its destination
// register — the candidates for dead-store warnings.
func pureDef(op vm.Opcode) bool {
	switch op {
	case vm.OpMovi, vm.OpMov, vm.OpNeg, vm.OpNot,
		vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpAnd, vm.OpOr,
		vm.OpXor, vm.OpShl, vm.OpShr, vm.OpSlt, vm.OpSle, vm.OpSeq, vm.OpSne,
		vm.OpAddi, vm.OpMuli, vm.OpDivi, vm.OpModi, vm.OpAndi, vm.OpOri,
		vm.OpXori, vm.OpShli, vm.OpShri, vm.OpSlti, vm.OpSlei, vm.OpSeqi, vm.OpSnei:
		return true
	}
	return false
}

// structural verifies per-function invariants that need no dataflow:
// branch targets inside the owning function, callee indices inside the
// function table, no reachable path off the end of a function, barrier
// arrive/wait pairing, immediate divisions by zero, and unreachable
// blocks.
func (a *analysis) structural() {
	for fi := range a.prog.Funcs {
		// Aliases sharing a body would duplicate every report.
		if a.alias(fi) {
			continue
		}
		name := a.fname(fi)
		g := a.cfgs[fi]
		for pc := g.start; pc < g.end; pc++ {
			in := a.prog.Code[pc]
			switch in.Op {
			case vm.OpJmp, vm.OpJz, vm.OpJnz:
				if t := int(in.Imm); t < g.start || t >= g.end {
					a.fs.add(Finding{
						Kind: badBranch, Sev: sevError, Func: name, PC: pc,
						Msg: fmt.Sprintf("branch target %d is outside %q [%d, %d)", t, name, g.start, g.end),
					})
				}
			case vm.OpCall, vm.OpSpawn, vm.OpSigH:
				if t := int(in.Imm); t < 0 || t >= len(a.prog.Funcs) {
					a.fs.add(Finding{
						Kind: badCallee, Sev: sevError, Func: name, PC: pc,
						Msg: fmt.Sprintf("%s of function index %d; the table has %d entries", in.Op, t, len(a.prog.Funcs)),
					})
				}
			case vm.OpDivi, vm.OpModi:
				if in.Imm == 0 && a.blockReachable(g, pc) {
					a.fs.add(Finding{
						Kind: divByZeroImm, Sev: sevError, Func: name, PC: pc,
						Msg: fmt.Sprintf("%s by immediate zero always faults", in.Op),
					})
				}
			case vm.OpBarArrive:
				ok := pc+1 < g.end && a.prog.Code[pc+1].Op == vm.OpBarWait &&
					a.prog.Code[pc+1].A == in.A && a.prog.Code[pc+1].B == in.B
				if !ok {
					a.fs.add(Finding{
						Kind: barrierPairing, Sev: sevWarning, Func: name, PC: pc,
						Msg: "bar.arrive is not immediately followed by a matching bar.wait; a checkpoint here strands the generation register",
					})
				}
			case vm.OpBarWait:
				ok := pc-1 >= g.start && a.prog.Code[pc-1].Op == vm.OpBarArrive &&
					a.prog.Code[pc-1].A == in.A && a.prog.Code[pc-1].B == in.B
				if !ok {
					a.fs.add(Finding{
						Kind: barrierPairing, Sev: sevWarning, Func: name, PC: pc,
						Msg: "bar.wait is not immediately preceded by a matching bar.arrive",
					})
				}
			}
		}
		for bi := range g.blocks {
			b := &g.blocks[bi]
			if !b.reach {
				a.fs.add(Finding{
					Kind: deadBlock, Sev: sevWarning, Func: name, PC: b.start,
					Msg: fmt.Sprintf("unreachable code at [%d, %d)", b.start, b.end),
				})
				continue
			}
			last := a.prog.Code[b.end-1]
			fallsOut := b.end == g.end && !isTerminator(last.Op)
			if fallsOut {
				a.fs.add(Finding{
					Kind: fallOffEnd, Sev: sevError, Func: name, PC: b.end - 1,
					Msg: fmt.Sprintf("execution can fall off the end of %q without ret or halt", name),
				})
			}
		}
	}
}

// alias reports whether fi shares its body with a lower-indexed function,
// which FuncAt names as the body's owner.
func (a *analysis) alias(fi int) bool {
	return a.prog.FuncAt(a.prog.Funcs[fi].Entry) != &a.prog.Funcs[fi]
}

func (a *analysis) blockReachable(g *cfg, pc int) bool {
	for bi := range g.blocks {
		b := &g.blocks[bi]
		if pc >= b.start && pc < b.end {
			return b.reach
		}
	}
	return false
}

// checkLiveness runs a backward liveness pass per function and warns
// about side-effect-free register writes whose value is never read.
func (a *analysis) checkLiveness() {
	for fi, f := range a.prog.Funcs {
		if a.alias(fi) {
			continue
		}
		g := a.cfgs[fi]
		if len(g.blocks) == 0 {
			continue
		}
		preds := make([][]int, len(g.blocks))
		for bi := range g.blocks {
			for _, s := range g.blocks[bi].succs {
				preds[s] = append(preds[s], bi)
			}
		}
		liveIn := make([]uint64, len(g.blocks))
		liveOut := make([]uint64, len(g.blocks))
		var buf []uint8
		transfer := func(bi int) uint64 {
			live := liveOut[bi]
			for pc := g.blocks[bi].end - 1; pc >= g.blocks[bi].start; pc-- {
				instr := a.prog.Code[pc]
				if d, ok := regDef(instr); ok {
					live &^= 1 << uint(d)
				}
				buf = regUses(instr, buf[:0])
				for _, u := range buf {
					live |= 1 << uint(u)
				}
			}
			return live
		}
		work := make([]int, 0, len(g.blocks))
		inWork := make([]bool, len(g.blocks))
		for bi := len(g.blocks) - 1; bi >= 0; bi-- {
			work = append(work, bi)
			inWork[bi] = true
		}
		for len(work) > 0 {
			bi := work[len(work)-1]
			work = work[:len(work)-1]
			inWork[bi] = false
			out := uint64(0)
			for _, s := range g.blocks[bi].succs {
				out |= liveIn[s]
			}
			liveOut[bi] = out
			if newIn := transfer(bi); newIn != liveIn[bi] {
				liveIn[bi] = newIn
				for _, p := range preds[bi] {
					if !inWork[p] {
						inWork[p] = true
						work = append(work, p)
					}
				}
			}
		}
		for bi := range g.blocks {
			if !g.blocks[bi].reach {
				continue
			}
			live := liveOut[bi]
			// Walk backward so each point sees liveness *after* it.
			type deadAt struct {
				pc int
				d  uint8
			}
			var dead []deadAt
			for pc := g.blocks[bi].end - 1; pc >= g.blocks[bi].start; pc-- {
				instr := a.prog.Code[pc]
				if d, ok := regDef(instr); ok {
					if pureDef(instr.Op) && live&(1<<uint(d)) == 0 {
						dead = append(dead, deadAt{pc, d})
					}
					live &^= 1 << uint(d)
				}
				buf = regUses(instr, buf[:0])
				for _, u := range buf {
					live |= 1 << uint(u)
				}
			}
			for _, da := range dead {
				a.report(fmt.Sprintf("dead|%d|%d", fi, da.pc), Finding{
					Kind: deadStore, Sev: sevWarning, Func: f.Name, PC: da.pc,
					Msg: fmt.Sprintf("value written to r%d is never read", da.d),
				})
			}
		}
	}
}
