package vm

// ObservesPlain reports whether an armed hook must see the plain
// instructions (ALU, branches, calls, loads and stores) one at a time:
// OnRetire fires at every instruction, OnMemAccess and OnMemWrite at every
// load and store. MayAcquire and OnSync do not count — they fire only at
// sync operations, which RunSlice never executes. A scheduler asks once
// per timeslice and uses RunSlice only on false.
func (h *Hooks) ObservesPlain() bool {
	return h.OnRetire != nil || h.OnMemAccess != nil || h.OnMemWrite != nil
}

// RunSlice retires up to n consecutive plain instructions of thread t and
// returns how many retired and the cycles they cost. It is step with the
// thread's pc, register file, the code and the cost table held in locals,
// for the opcodes that touch nothing but the thread's own registers, frames
// and data memory. It returns before any instruction that is not one of
// those — every sync op, sys, spawn/join, sig.handler and halt, and anything
// that would fault — and before touching a thread that is not Runnable, so
// the caller's next Step executes exactly that instruction: step stays the
// one definition of those semantics and the reference for the plain ones.
// A return short of n therefore means "Step next", never an error.
//
// The caller must hold !m.Hooks.ObservesPlain(): the loop calls no hook and
// does not read or set m.Now. Register operands index the file unchecked,
// which Program.Validate entitles it to.
func (m *Machine) RunSlice(t *Thread, n uint64) (retired uint64, cycles int64) {
	if t.Status != Runnable {
		return 0, 0
	}
	const rm = NumRegs - 1 // operands are < NumRegs (Validate); the mask only tells the compiler so
	code, tab, mem := m.Prog.Code, &m.costTab, m.Mem
	r := &t.Regs
	pc := t.PC
loop:
	for retired < n {
		if uint(pc) >= uint(len(code)) {
			break
		}
		in := &code[pc]
		a, b, c := in.A&rm, in.B&rm, in.C&rm
		next := pc + 1
		switch in.Op {
		case OpNop:
		case OpMovi:
			r[a] = in.Imm
		case OpMov:
			r[a] = r[b]
		case OpAdd:
			r[a] = r[b] + r[c]
		case OpSub:
			r[a] = r[b] - r[c]
		case OpMul:
			r[a] = r[b] * r[c]
		case OpDiv:
			if r[c] == 0 {
				break loop
			}
			r[a] = r[b] / r[c]
		case OpMod:
			if r[c] == 0 {
				break loop
			}
			r[a] = r[b] % r[c]
		case OpAnd:
			r[a] = r[b] & r[c]
		case OpOr:
			r[a] = r[b] | r[c]
		case OpXor:
			r[a] = r[b] ^ r[c]
		case OpShl:
			r[a] = r[b] << (uint64(r[c]) & 63)
		case OpShr:
			r[a] = r[b] >> (uint64(r[c]) & 63)
		case OpAddi:
			r[a] = r[b] + in.Imm
		case OpMuli:
			r[a] = r[b] * in.Imm
		case OpDivi:
			if in.Imm == 0 {
				break loop
			}
			r[a] = r[b] / in.Imm
		case OpModi:
			if in.Imm == 0 {
				break loop
			}
			r[a] = r[b] % in.Imm
		case OpAndi:
			r[a] = r[b] & in.Imm
		case OpOri:
			r[a] = r[b] | in.Imm
		case OpXori:
			r[a] = r[b] ^ in.Imm
		case OpShli:
			r[a] = r[b] << (uint64(in.Imm) & 63)
		case OpShri:
			r[a] = r[b] >> (uint64(in.Imm) & 63)
		case OpNeg:
			r[a] = -r[b]
		case OpNot:
			r[a] = ^r[b]
		case OpSlt:
			r[a] = b2w(r[b] < r[c])
		case OpSle:
			r[a] = b2w(r[b] <= r[c])
		case OpSeq:
			r[a] = b2w(r[b] == r[c])
		case OpSne:
			r[a] = b2w(r[b] != r[c])
		case OpSlti:
			r[a] = b2w(r[b] < in.Imm)
		case OpSlei:
			r[a] = b2w(r[b] <= in.Imm)
		case OpSeqi:
			r[a] = b2w(r[b] == in.Imm)
		case OpSnei:
			r[a] = b2w(r[b] != in.Imm)

		case OpJmp:
			next = int(in.Imm)
		case OpJz:
			if r[a] == 0 {
				next = int(in.Imm)
			}
		case OpJnz:
			if r[a] != 0 {
				next = int(in.Imm)
			}

		case OpCall:
			fn := int(in.Imm)
			if fn < 0 || fn >= len(m.Prog.Funcs) || len(t.Frames) >= maxFrames {
				break loop
			}
			t.pushCall(next)
			next = m.Prog.Funcs[fn].Entry
		case OpRet:
			if len(t.Frames) == 0 {
				break loop
			}
			next = t.popFrame(r[a])

		// A page-cache hit is taken inline; Load and Store serve a miss.
		case OpLd:
			v, hit := mem.LoadHit(r[b] + in.Imm)
			if !hit {
				v = mem.Load(r[b] + in.Imm)
			}
			r[a] = v
		case OpSt:
			if !mem.StoreHit(r[b]+in.Imm, r[a]) {
				mem.Store(r[b]+in.Imm, r[a])
			}
		case OpLdx:
			v, hit := mem.LoadHit(r[b] + r[c])
			if !hit {
				v = mem.Load(r[b] + r[c])
			}
			r[a] = v
		case OpStx:
			if !mem.StoreHit(r[b]+r[c], r[a]) {
				mem.Store(r[b]+r[c], r[a])
			}

		case OpTid:
			r[a] = Word(t.ID)
		default:
			break loop
		}
		cycles += tab[in.Op]
		pc = next
		retired++
	}
	t.PC = pc
	t.Retired += retired
	return retired, cycles
}
