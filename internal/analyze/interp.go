package analyze

import (
	"fmt"
	"slices"

	"doubleplay/internal/vm"
)

// exec advances the abstract state st over the instruction at pc. With
// rec set (the post-fixpoint recording pass) it additionally emits
// findings, memory-access sites, and callee contexts; the fixpoint pass
// runs with rec unset so nothing is reported from intermediate states.
func (a *analysis) exec(c *context, st *absState, pc int, rec bool) {
	a.steps++
	if a.budget > 0 && a.steps > a.budget {
		a.budgetHit = true
	}
	in := a.prog.Code[pc]
	r := &st.regs
	switch in.Op {
	case vm.OpNop, vm.OpJmp, vm.OpJz, vm.OpJnz:
		// Branching is handled by CFG edges; no state change.
	case vm.OpMovi:
		r[in.A] = konst(in.Imm)
	case vm.OpMov:
		r[in.A] = r[in.B]
	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpAnd, vm.OpOr,
		vm.OpXor, vm.OpShl, vm.OpShr, vm.OpSlt, vm.OpSle, vm.OpSeq, vm.OpSne:
		r[in.A] = foldBin(in.Op, r[in.B], r[in.C])
	case vm.OpAddi, vm.OpMuli, vm.OpDivi, vm.OpModi, vm.OpAndi, vm.OpOri,
		vm.OpXori, vm.OpShli, vm.OpShri, vm.OpSlti, vm.OpSlei, vm.OpSeqi, vm.OpSnei:
		r[in.A] = foldImm(in.Op, r[in.B], in.Imm)
	case vm.OpNeg:
		if v := r[in.B]; v.k == vConst {
			r[in.A] = konst(-v.c)
		} else {
			r[in.A] = unknown
		}
	case vm.OpNot:
		if v := r[in.B]; v.k == vConst {
			r[in.A] = konst(^v.c)
		} else {
			r[in.A] = unknown
		}
	case vm.OpTid:
		r[in.A] = aval{k: vTid}

	case vm.OpLd:
		if rec {
			a.recordSite(c, st, pc, r[in.B], konst(in.Imm), false, unknown)
		}
		r[in.A] = unknown
	case vm.OpSt:
		if rec {
			a.recordSite(c, st, pc, r[in.B], konst(in.Imm), true, r[in.A])
		}
	case vm.OpLdx:
		if rec {
			a.recordSite(c, st, pc, r[in.B], r[in.C], false, unknown)
		}
		r[in.A] = unknown
	case vm.OpStx:
		if rec {
			a.recordSite(c, st, pc, r[in.B], r[in.C], true, r[in.A])
		}

	case vm.OpLock:
		st.lk = a.execLock(c, st.lk, r[in.A], pc, rec)
	case vm.OpUnlock:
		st.lk = a.execUnlock(c, st.lk, r[in.A], pc, rec)
	case vm.OpBarArrive:
		r[in.A] = unknown
	case vm.OpBarWait:
		// blocking only
	case vm.OpCas:
		// Atomics synchronize; they are deliberately not access sites.
		r[in.A] = unknown
	case vm.OpFadd:
		r[in.A] = unknown

	case vm.OpCall:
		fn := int(in.Imm)
		if fn >= 0 && fn < len(a.prog.Funcs) && rec {
			if c.class.kind == mainThread && a.maySpawn[fn] {
				// The initial thread tracks its live children (st.kids) to
				// prove pre-spawn/post-join accesses non-concurrent, but a
				// spawn buried inside a callee is invisible to the caller's
				// count — accesses after this call could wrongly look
				// single-threaded. No suite workload spawns from a helper;
				// if a guest does, the proof is void.
				a.unsound(c.fn, pc, fmt.Sprintf("call to %q, which may spawn threads the caller's concurrency tracking cannot see", a.fname(fn)))
			}
			callee := &context{fn: fn, lk: st.lk, class: c.class, conc: a.concAt(c, st)}
			for i := 0; i < vm.MaxArgs; i++ {
				callee.args[i] = st.regs[vm.ArgStageBase+i]
			}
			a.bumpInst(callee.key(), a.instOf(c))
			a.enqueue(callee)
		}
		r[0] = unknown
	case vm.OpSys:
		if rec && a.concAt(c, st) {
			// A syscall's memory write-backs (reads into buffers, alloc
			// bookkeeping) are not access sites the lockset screen models;
			// while other threads are live they can overlap guest accesses
			// unordered by any lock.
			a.unsound(c.fn, pc, "syscall issued while other threads are live; its memory effects are outside the lockset model")
		}
		r[0] = unknown
	case vm.OpRet:
		if rec && !st.lk.sameHeld(c.lk) {
			a.report(fmt.Sprintf("retlk|%d|%d", c.fn, pc), Finding{
				Kind: lockAtExit, Sev: sevWarning, Func: a.fname(c.fn), PC: pc,
				Msg: fmt.Sprintf("%q returns holding locks {%s} but was entered holding {%s}",
					a.fname(c.fn), st.lk, c.lk),
			})
		}
	case vm.OpHalt:
		if rec && (len(st.lk.must) > 0 || st.lk.unk > 0) {
			a.report(fmt.Sprintf("haltlk|%d|%d", c.fn, pc), Finding{
				Kind: lockAtExit, Sev: sevWarning, Func: a.fname(c.fn), PC: pc,
				Msg: fmt.Sprintf("thread exits holding locks {%s}; waiters block forever", st.lk),
			})
		}

	case vm.OpSpawn:
		fn := int(in.Imm)
		if fn >= 0 && fn < len(a.prog.Funcs) && rec {
			child := &context{fn: fn, class: threadClass{spawned, fn}, conc: true}
			child.args[0] = st.regs[in.B]
			for i := 1; i < vm.MaxArgs; i++ {
				child.args[i] = konst(0)
			}
			n := 1
			if a.spawnCycle[pc] {
				n = 2 // a looped spawn site can start this context repeatedly
			}
			a.bumpInst(child.key(), n)
			a.enqueue(child)
		}
		r[in.A] = unknown
		if c.class.kind == mainThread {
			st.kids = min(st.kids+1, kidsCap)
		}
	case vm.OpJoin:
		r[in.A] = unknown
		if c.class.kind == mainThread {
			st.kids = max(st.kids-1, 0)
		}
	case vm.OpSigH:
		fn := int(in.Imm)
		if fn >= 0 && fn < len(a.prog.Funcs) && rec {
			h := &context{fn: fn, class: threadClass{handler, fn}, conc: a.anySpawn}
			h.args[0] = unknown // the signal number
			for i := 1; i < vm.MaxArgs; i++ {
				h.args[i] = konst(0)
			}
			a.bumpInst(h.key(), 2) // every live thread can run a handler instance
			a.enqueue(h)
		}
	}
}

func (a *analysis) execRecord(c *context, st *absState, pc int) {
	a.exec(c, st, pc, true)
}

// concAt reports whether execution at this point may overlap another
// thread: spawned threads and (installed-while-threaded) signal handlers
// always may; the initial thread only while it has un-joined children.
func (a *analysis) concAt(c *context, st *absState) bool {
	if c.class.kind == mainThread {
		return st.kids > 0
	}
	return c.conc
}

// execLock models OpLock. Acquiring a known id the thread must already
// hold is a certain runtime fault (the machine faults recursive locks).
func (a *analysis) execLock(c *context, lk lockset, id aval, pc int, rec bool) lockset {
	if id.k != vConst {
		lk.unk = min(lk.unk+1, lockCap)
		lk.mayUnk = min(lk.mayUnk+1, lockCap)
		return lk
	}
	if slices.Contains(lk.must, id.c) {
		if rec {
			a.report(fmt.Sprintf("reclk|%d|%d", c.fn, pc), Finding{
				Kind: recursiveLock, Sev: sevError, Func: a.fname(c.fn), PC: pc,
				Msg: fmt.Sprintf("lock %d is already held here; re-acquiring faults the thread", id.c),
			})
		}
		return lk
	}
	return lk.acquire(id.c)
}

// execUnlock models OpUnlock. Releasing a known id that is not even
// possibly held is a certain runtime fault; releasing one only held on
// some paths is a balance warning.
func (a *analysis) execUnlock(c *context, lk lockset, id aval, pc int, rec bool) lockset {
	if id.k != vConst {
		switch {
		case lk.unk > 0:
			lk.unk--
			lk.mayUnk = max(lk.mayUnk-1, 0)
		case len(lk.must) == 1 && len(lk.may) == 1 && lk.mayUnk == 0:
			// The single held lock must be the one being released.
			lk = lk.release(lk.must[0])
		case lk.empty():
			if rec {
				a.report(fmt.Sprintf("unlk|%d|%d", c.fn, pc), Finding{
					Kind: unbalancedLock, Sev: sevError, Func: a.fname(c.fn), PC: pc,
					Msg: "unlock with no lock held on any path; faults the thread",
				})
			}
		default:
			// Several candidates; cannot tell which is released.
			if lk.mayUnk > 0 {
				lk.mayUnk--
			}
		}
		return lk
	}
	switch {
	case slices.Contains(lk.must, id.c):
		lk = lk.release(id.c)
	case slices.Contains(lk.may, id.c):
		if rec {
			a.report(fmt.Sprintf("maylk|%d|%d", c.fn, pc), Finding{
				Kind: unbalancedLock, Sev: sevWarning, Func: a.fname(c.fn), PC: pc,
				Msg: fmt.Sprintf("lock %d is released here but only acquired on some paths; faults the others", id.c),
			})
		}
		lk = lk.release(id.c)
	case lk.unk > 0 || lk.mayUnk > 0:
		// May match a lock acquired under a dynamically-computed id;
		// nothing provable either way.
	default:
		if rec {
			a.report(fmt.Sprintf("unlk|%d|%d", c.fn, pc), Finding{
				Kind: unbalancedLock, Sev: sevError, Func: a.fname(c.fn), PC: pc,
				Msg: fmt.Sprintf("lock %d is released here but never acquired on any path; faults the thread", id.c),
			})
		}
	}
	return lk
}
