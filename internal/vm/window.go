package vm

// WindowCap bounds a window's store buffer and its load list, separately:
// RunWindow stops before the access that would not fit. A scheduler that
// keeps its windows to WindowCap memory accesses' worth of cycles never
// sees that stop.
const WindowCap = 16

// WinStore is one store held back in a window's buffer.
type WinStore struct{ Addr, Val Word }

// Window is what one thread did inside one speculative scheduling window
// (sched.Parallel): the stores RunWindow held back from guest memory, the
// addresses it loaded from guest memory, and what Undo needs to put the
// thread back where Open found it. A Window is reused from one window to
// the next; its buffers are allocated once, by the first Open.
//
// It is a store buffer and not an undo log because a store that reaches
// mem.Memory has side effects the cost model charges for — materialising
// an untouched page, copying one a checkpoint shares — and a store undone
// afterwards would leave those behind.
type Window struct {
	// Stores is every store in program order, overwritten values included:
	// Commit replays them all, so guest memory sees the same sequence of
	// writes per address (and materialises the same pages) as if each had
	// landed when it retired.
	Stores []WinStore
	// Loads is every address read from guest memory. Loads satisfied from
	// Stores are not listed; their address is in Stores already.
	Loads []Word
	// Starts has bit k set when one of the last RunWindow's retirements
	// started k cycles into it, for k < 64. Every plain instruction a
	// scheduler bounds windows by cycles for costs a cycle at least, so
	// each retirement has a bit of its own.
	Starts uint64

	// sig has bit (addr & 63) set for every address in Stores, so a load
	// scans the buffer only when it might hit.
	sig uint64

	// The undo record. Frames at depth [low, depth) are the ones a ret
	// popped since Open — a later call may have overwritten their slots —
	// saved innermost first.
	regs    [NumRegs]Word
	pc      int
	retired uint64
	depth   int
	low     int
	popped  []Frame
}

// Open starts a window at t's current state with empty buffers.
func (w *Window) Open(t *Thread) {
	if w.Stores == nil {
		w.Stores = make([]WinStore, 0, WindowCap)
		w.Loads = make([]Word, 0, WindowCap)
	}
	w.regs, w.pc, w.retired = t.Regs, t.PC, t.Retired
	w.depth = len(t.Frames)
	w.reset()
}

func (w *Window) reset() {
	w.Stores, w.Loads, w.sig, w.Starts = w.Stores[:0], w.Loads[:0], 0, 0
	w.low, w.popped = w.depth, w.popped[:0]
}

// Undo puts t's registers, pc, call frames and retired count back to their
// values at Open and empties the buffers; the window stays open, so t can
// run again from the same point. Guest memory needs no undoing: RunWindow
// never wrote to it.
func (w *Window) Undo(t *Thread) {
	t.Regs, t.PC, t.Retired = w.regs, w.pc, w.retired
	t.Frames = t.Frames[:w.low]
	for i := len(w.popped) - 1; i >= 0; i-- {
		t.Frames = append(t.Frames, w.popped[i])
	}
	w.reset()
}

// Commit writes the buffered stores to m's memory in program order.
func (w *Window) Commit(m *Machine) {
	for _, s := range w.Stores {
		m.Mem.Store(s.Addr, s.Val)
	}
}

// loadHit is load's common case, small enough to inline into RunWindow: a
// load of an address no buffered store can forward to, with room on the
// load list, from a page the page cache holds. It reports false, having
// done nothing, in every other case, which load serves.
func (w *Window) loadHit(m *Machine, addr Word) (Word, bool) {
	if w.sig>>(uint64(addr)&63)&1 == 0 && len(w.Loads) < cap(w.Loads) {
		if v, hit := m.Mem.LoadHit(addr); hit {
			w.Loads = append(w.Loads, addr)
			return v, true
		}
	}
	return 0, false
}

// load returns the word a load of addr sees inside the window — the
// youngest buffered store to addr, else guest memory — and false if the
// load list is full.
func (w *Window) load(m *Machine, addr Word) (Word, bool) {
	if w.sig>>(uint64(addr)&63)&1 != 0 {
		for i := len(w.Stores) - 1; i >= 0; i-- {
			if w.Stores[i].Addr == addr {
				return w.Stores[i].Val, true
			}
		}
	}
	if len(w.Loads) == cap(w.Loads) {
		return 0, false
	}
	w.Loads = append(w.Loads, addr)
	return m.Mem.Load(addr), true
}

// store buffers a store and reports false if the buffer is full.
func (w *Window) store(addr, val Word) bool {
	if len(w.Stores) == cap(w.Stores) {
		return false
	}
	w.Stores = append(w.Stores, WinStore{addr, val})
	w.sig |= 1 << (uint64(addr) & 63)
	return true
}

// plain reports whether op is one of the instructions RunSlice and
// RunWindow execute: those that touch nothing but the thread's own
// registers, frames and data memory.
func (op Opcode) plain() bool { return op <= OpStx || op == OpTid }

// PlainCosts returns what the cheapest and the costliest plain instruction
// cost under m's cost model. A scheduler that bounds a batch of plain
// instructions by the cycles it spans relies on the floor being at least
// one; one that must stop a batch before a clock bounds its length by the
// ceiling.
func (m *Machine) PlainCosts() (floor, ceil int64) {
	floor, ceil = m.costTab[OpNop], m.costTab[OpNop]
	for op := OpNop; op <= OpTid; op++ {
		if op.plain() {
			floor, ceil = min(floor, m.costTab[op]), max(ceil, m.costTab[op])
		}
	}
	return floor, ceil
}

// RunWindow is RunSlice on a cycle budget with guest memory held read-only:
// it retires consecutive plain instructions of t, at most n of them, for as
// long as the next one starts fewer than budget cycles in — an instruction
// whose predecessors cost budget or more is not started — and returns how
// many retired, what they cost, and the cost of the last one; w.Starts says
// at which cycles they started. Stores go to w's buffer and loads see them;
// everything else is RunSlice's contract: it returns before any instruction
// that is not plain, before anything that would fault, before touching a
// thread that is not Runnable (and before an access w has no room for),
// leaving that instruction to Step; the caller must hold
// !m.Hooks.ObservesPlain(), and w must be open on t.
//
// cycles < budget on return therefore means the thread met something the
// window cannot contain cycles into it; cycles >= budget means it ran the
// window out.
//
// The two loops are kept apart on purpose. RunSlice as this loop with a
// nil-buffer branch at the four memory opcodes and at ret measured 10 %
// slower on BenchmarkUniFollow/fft (behind in eight of eight alternating
// runs; EXPERIMENTS.md), and replay is where RunSlice earns its keep.
func (m *Machine) RunWindow(t *Thread, w *Window, n uint64, budget int64) (retired uint64, cycles, last int64) {
	if t.Status != Runnable {
		w.Starts = 0
		return 0, 0, 0
	}
	const rm = NumRegs - 1 // operands are < NumRegs (Validate); the mask only tells the compiler so
	code, tab := m.Prog.Code, &m.costTab
	r := &t.Regs
	pc := t.PC
	var starts uint64
loop:
	for retired < n && cycles < budget {
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
			depth := len(t.Frames)
			if depth == 0 {
				break loop
			}
			if depth <= w.low {
				// The frame was there at Open: keep it for Undo.
				w.popped = append(w.popped, t.Frames[depth-1])
				w.low = depth - 1
			}
			next = t.popFrame(r[a])

		case OpLd:
			v, ok := w.loadHit(m, r[b]+in.Imm)
			if !ok {
				if v, ok = w.load(m, r[b]+in.Imm); !ok {
					break loop
				}
			}
			r[a] = v
		case OpSt:
			if !w.store(r[b]+in.Imm, r[a]) {
				break loop
			}
		case OpLdx:
			v, ok := w.loadHit(m, r[b]+r[c])
			if !ok {
				if v, ok = w.load(m, r[b]+r[c]); !ok {
					break loop
				}
			}
			r[a] = v
		case OpStx:
			if !w.store(r[b]+r[c], r[a]) {
				break loop
			}

		case OpTid:
			r[a] = Word(t.ID)
		default:
			break loop
		}
		starts |= 1 << uint64(cycles)
		last = tab[in.Op]
		cycles += last
		pc = next
		retired++
	}
	t.PC = pc
	t.Retired += retired
	w.Starts = starts
	return retired, cycles, last
}
