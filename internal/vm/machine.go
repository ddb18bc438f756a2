package vm

import (
	"fmt"
	"maps"
	"slices"

	"doubleplay/internal/mem"
)

// ObjKind classifies synchronisation objects for ordering and logging.
type ObjKind uint8

const (
	ObjLock    ObjKind = iota // mutex, identified by guest word
	ObjAtomic                 // atomic memory word, identified by address
	objSpawn                  // the global thread-creation order
	objBarrier                // barrier, identified by guest word
)

var objKindNames = [...]string{ObjLock: "lock", ObjAtomic: "atomic", objSpawn: "spawn", objBarrier: "barrier"}

func (k ObjKind) String() string {
	if int(k) < len(objKindNames) {
		return objKindNames[k]
	}
	return fmt.Sprintf("objkind(%d)", uint8(k))
}

// SyncObj identifies one synchronisation object.
type SyncObj struct {
	Kind ObjKind
	ID   Word
}

func (o SyncObj) String() string { return fmt.Sprintf("%s:%d", o.Kind, o.ID) }

// SyncKind classifies synchronisation events.
type SyncKind uint8

const (
	SyncAcquire   SyncKind = iota // lock acquired
	SyncRelease                   // lock released
	SyncAtomic                    // CAS or fetch-add retired
	SyncSpawn                     // thread created (Child = new tid)
	SyncBarArrive                 // barrier arrival retired (Child = generation awaited)
	SyncBarPass                   // barrier wait retired (Child = generation passed)
	SyncExit                      // thread exited
	SyncJoin                      // join retired (Child = joined tid)
)

var syncKindNames = [...]string{
	SyncAcquire: "acquire", SyncRelease: "release", SyncAtomic: "atomic",
	SyncSpawn: "spawn", SyncBarArrive: "bar-arrive", SyncBarPass: "bar-pass",
	SyncExit: "exit", SyncJoin: "join",
}

func (k SyncKind) String() string {
	if int(k) < len(syncKindNames) {
		return syncKindNames[k]
	}
	return fmt.Sprintf("synckind(%d)", uint8(k))
}

// SyncEvent reports one retired synchronisation operation.
type SyncEvent struct {
	Tid   int
	Obj   SyncObj
	Kind  SyncKind
	Child int // spawned/joined tid, or barrier generation
}

// Gated reports whether events of this kind are subject to sync-order
// enforcement during epoch-parallel execution. Acquire order, atomic-op
// order, and spawn order fully determine inter-thread communication through
// synchronisation; releases, barriers, exits and joins order themselves.
func (e SyncEvent) Gated() bool {
	switch e.Kind {
	case SyncAcquire, SyncAtomic, SyncSpawn:
		return true
	}
	return false
}

// MemWrite is a block of guest memory written by a syscall; recorded in the
// syscall log so replay can reproduce input data without re-executing the
// simulated OS.
type MemWrite struct {
	Addr Word
	Data []Word
}

// SysResult is the outcome of a syscall attempt.
type SysResult struct {
	Ret    Word
	Block  bool       // retry later; nothing retired
	Writes []MemWrite // applied to guest memory on retire
	Cost   Word       // extra cycles beyond the base syscall cost (data movement)
}

// SyscallHandler services guest syscalls. During recording this is the
// simulated OS wrapped in a logger; during epoch-parallel execution and
// replay it is an injector that feeds back logged results.
type SyscallHandler interface {
	Syscall(m *Machine, t *Thread, num Word, args [6]Word) SysResult
}

// Hooks observe and constrain execution. All fields may be nil.
type Hooks struct {
	// MayAcquire gates order-enforced sync operations (see SyncEvent.Gated).
	// Returning false blocks the thread until a later retry succeeds.
	MayAcquire func(obj SyncObj, tid int) bool
	// OnSync observes every retired synchronisation event.
	OnSync func(ev SyncEvent)
	// OnMemAccess observes every data (non-atomic) guest memory access and
	// every syscall write. Atomic operations are reported as sync events
	// instead.
	OnMemAccess func(tid int, addr Word, write bool)
	// OnMemWrite observes every guest memory write with its old and new
	// values — data stores, atomic read-modify-writes (cas/fadd), and
	// syscall result writes — just before the store lands. Unlike
	// OnMemAccess it covers atomics, which is what data watchpoints need:
	// the debug layer attaches here to stop when a watched word changes.
	// Nil-checked at every site so the non-debug hot path pays one branch.
	OnMemWrite func(tid int, addr, old, val Word)
	// OnRetire observes every retired instruction: pc is the program
	// counter the instruction retired at (for a delivered signal, the pc it
	// interrupted) and cost is the instruction's static per-opcode charge
	// (Sync for signal delivery, zero for a fetch outside the code
	// segment, which faults). The static charge — rather than the
	// dynamic StepResult cost — keeps the stream a pure function of the
	// retired-instruction sequence, identical between live and injected
	// execution; profilers depend on that.
	OnRetire func(t *Thread, pc int, cost int64)
}

// StepResult reports the outcome of executing one instruction attempt.
type StepResult struct {
	Retired bool
	Cost    int64
}

// Machine is a complete guest machine: program, memory, threads, locks, and
// syscall environment. A Machine is driven by a scheduler that decides which
// thread attempts the next instruction; the Machine itself is strictly
// single-goroutine.
type Machine struct {
	Prog    *Program
	Mem     *mem.Memory
	Threads []*Thread
	Locks   map[Word]int // lock id -> holder tid; absent means free
	OS      SyscallHandler
	Hooks   Hooks
	Cost    *CostModel

	// Now is the current simulated cycle, maintained by the scheduler so
	// the simulated OS can time-stamp world events.
	Now int64

	// Diverged is set by an injection handler or enforcement layer when the
	// execution departs from the recorded one; the epoch runner checks it
	// after every step.
	Diverged string

	// Barriers is architectural state: per-barrier arrival count and
	// release generation. It is checkpointed and hashed.
	Barriers map[Word]*BarrierState

	nextTID    int
	liveCount  int
	faultCount int

	// costTab is Cost.instrCost flattened per opcode, so the step hot
	// path indexes instead of switching; tabCost is the model it was built
	// from, so a reload under an unchanged model keeps it.
	costTab [256]int64
	tabCost CostModel
}

// maxFrames bounds a thread's call stack; a call or signal delivery that
// would exceed it faults the thread.
const maxFrames = 512

// BarrierState is one barrier's architectural state.
type BarrierState struct {
	Gen     Word // completed release generations
	Arrived Word // arrivals in the current generation
}

// NewMachine builds a machine at the program's entry point with a single
// runnable thread (tid 0). The program must pass Validate; a malformed
// image panics with an error wrapping ErrInvalidProgram rather than
// surfacing later as a guest fault at some unrelated pc.
func NewMachine(prog *Program, os SyscallHandler, cost *CostModel) *Machine {
	if err := prog.Validate(); err != nil {
		panic(err)
	}
	if cost == nil {
		cost = DefaultCosts()
	}
	m := &Machine{
		Prog:     prog,
		Mem:      mem.New(),
		Locks:    make(map[Word]int),
		OS:       os,
		Cost:     cost,
		Barriers: make(map[Word]*BarrierState),
	}
	m.costTab, m.tabCost = cost.table(), *cost
	m.Mem.StoreRange(prog.DataBase, prog.Data)
	m.Mem.ResetStats()
	main := &Thread{ID: 0, PC: prog.Funcs[prog.Entry].Entry, SigHandler: -1}
	m.Threads = []*Thread{main}
	m.nextTID = 1
	m.liveCount = 1
	return m
}

// FaultCount reports the number of faulted threads.
func (m *Machine) FaultCount() int { return m.faultCount }

// Done reports whether every thread has terminated.
func (m *Machine) Done() bool { return m.liveCount == 0 }

// Thread returns the thread with the given id, or nil.
func (m *Machine) Thread(tid int) *Thread {
	if tid < 0 || tid >= len(m.Threads) {
		return nil
	}
	return m.Threads[tid]
}

// Faults returns the fault messages of all faulted threads.
func (m *Machine) Faults() []string {
	var out []string
	for _, t := range m.Threads {
		if t.Status == Faulted {
			out = append(out, fmt.Sprintf("tid %d @pc %d: %s", t.ID, t.PC, t.Fault))
		}
	}
	return out
}

// fault ends t at its current instruction, which retires at no charge: a
// fault is the thread's last retirement, as a halt is, so a retired count
// that includes it says "and then the thread faulted" to every later run.
func (m *Machine) fault(t *Thread, msg string) StepResult {
	t.Status = Faulted
	t.Fault = msg
	t.Retired++
	m.liveCount--
	m.faultCount++
	m.wakeJoiners(t.ID)
	return StepResult{Retired: true}
}

// wake transitions every live thread blocked on (status, obj) back to
// Runnable so it re-attempts its instruction when next scheduled.
func (m *Machine) wake(status Status, obj Word) {
	for _, t := range m.Threads {
		if t.Status == status && t.waitObj == obj {
			t.Status = Runnable
		}
	}
}

func (m *Machine) wakeJoiners(tid int) { m.wake(blockedJoin, Word(tid)) }

// wakeOrderBlocked releases every thread held back by sync-order
// enforcement; called after each retired sync event so gated threads
// re-poll the gate.
func (m *Machine) wakeOrderBlocked() {
	for _, t := range m.Threads {
		if t.Status == blockedOrder {
			t.Status = Runnable
		}
	}
}

func (m *Machine) emitSync(ev SyncEvent) {
	if m.Hooks.OnSync != nil {
		m.Hooks.OnSync(ev)
	}
	m.wakeOrderBlocked()
}

// mayAcquire consults the enforcement gate; on refusal the thread blocks.
func (m *Machine) mayAcquire(t *Thread, obj SyncObj) bool {
	if m.Hooks.MayAcquire == nil {
		return true
	}
	if m.Hooks.MayAcquire(obj, t.ID) {
		return true
	}
	t.Status = blockedOrder
	t.waitObj = 0
	return false
}

func (m *Machine) memLoad(t *Thread, addr Word) Word {
	if m.Hooks.OnMemAccess != nil {
		m.Hooks.OnMemAccess(t.ID, addr, false)
	}
	return m.Mem.Load(addr)
}

func (m *Machine) memStore(t *Thread, addr, val Word) {
	if m.Hooks.OnMemAccess != nil {
		m.Hooks.OnMemAccess(t.ID, addr, true)
	}
	if m.Hooks.OnMemWrite != nil {
		m.Hooks.OnMemWrite(t.ID, addr, m.Mem.Peek(addr), val)
	}
	m.Mem.Store(addr, val)
}

// Step makes thread t attempt its current instruction. Blocked threads
// re-attempt and either proceed or remain blocked; the scheduler charges
// cost only for retired instructions.
func (m *Machine) Step(t *Thread) StepResult { return m.attempt(t, 0, false) }

// Deliver makes live thread t, blocked or not, take signal sig before its
// current instruction, a retiring event (deliverSignal), so the log pins
// the delivery by t's retired count; the schedulers decide when one is
// due. It keeps Step's precedence: a dead thread panics, and a thread
// whose pc is outside the code faults there and takes nothing.
func (m *Machine) Deliver(t *Thread, sig Word) StepResult { return m.attempt(t, sig, true) }

// attempt is Step, or Deliver of sig when deliver is set, reported to
// OnRetire.
func (m *Machine) attempt(t *Thread, sig Word, deliver bool) StepResult {
	if m.Hooks.OnRetire == nil {
		return m.step(t, sig, deliver)
	}
	pc0, sig0 := t.PC, t.SigRetired
	res := m.step(t, sig, deliver)
	if res.Retired {
		var cost int64 // a fetch outside the code segment faults for nothing
		switch {
		case t.SigRetired != sig0:
			cost = m.Cost.Sync // signal delivery, not the instruction at pc0
		case uint(pc0) < uint(len(m.Prog.Code)):
			cost = m.costTab[m.Prog.Code[pc0].Op]
		}
		m.Hooks.OnRetire(t, pc0, cost)
	}
	return res
}

func (m *Machine) step(t *Thread, sig Word, deliver bool) StepResult {
	if !t.Status.Live() {
		panic(fmt.Sprintf("vm: Step on dead thread %d (%s)", t.ID, t.Status))
	}
	if t.PC < 0 || t.PC >= len(m.Prog.Code) {
		return m.fault(t, fmt.Sprintf("pc out of range: %d", t.PC))
	}
	if deliver {
		return m.deliverSignal(t, sig)
	}
	in := m.Prog.Code[t.PC]
	cost := m.costTab[in.Op]
	r := &t.Regs

	retire := func() StepResult {
		t.PC++
		t.Retired++
		t.Status = Runnable
		return StepResult{Retired: true, Cost: cost}
	}
	retireSync := func(ev SyncEvent) StepResult {
		res := retire()
		t.SyncRetired++
		m.emitSync(ev)
		return res
	}

	switch in.Op {
	case OpNop:
		return retire()
	case OpMovi:
		r[in.A] = in.Imm
		return retire()
	case OpMov:
		r[in.A] = r[in.B]
		return retire()
	case OpAdd:
		r[in.A] = r[in.B] + r[in.C]
		return retire()
	case OpSub:
		r[in.A] = r[in.B] - r[in.C]
		return retire()
	case OpMul:
		r[in.A] = r[in.B] * r[in.C]
		return retire()
	case OpDiv:
		if r[in.C] == 0 {
			return m.fault(t, "divide by zero")
		}
		r[in.A] = r[in.B] / r[in.C]
		return retire()
	case OpMod:
		if r[in.C] == 0 {
			return m.fault(t, "modulo by zero")
		}
		r[in.A] = r[in.B] % r[in.C]
		return retire()
	case OpAnd:
		r[in.A] = r[in.B] & r[in.C]
		return retire()
	case OpOr:
		r[in.A] = r[in.B] | r[in.C]
		return retire()
	case OpXor:
		r[in.A] = r[in.B] ^ r[in.C]
		return retire()
	case OpShl:
		r[in.A] = r[in.B] << (uint64(r[in.C]) & 63)
		return retire()
	case OpShr:
		r[in.A] = r[in.B] >> (uint64(r[in.C]) & 63)
		return retire()
	case OpAddi:
		r[in.A] = r[in.B] + in.Imm
		return retire()
	case OpMuli:
		r[in.A] = r[in.B] * in.Imm
		return retire()
	case OpDivi:
		if in.Imm == 0 {
			return m.fault(t, "divide by zero immediate")
		}
		r[in.A] = r[in.B] / in.Imm
		return retire()
	case OpModi:
		if in.Imm == 0 {
			return m.fault(t, "modulo by zero immediate")
		}
		r[in.A] = r[in.B] % in.Imm
		return retire()
	case OpAndi:
		r[in.A] = r[in.B] & in.Imm
		return retire()
	case OpOri:
		r[in.A] = r[in.B] | in.Imm
		return retire()
	case OpXori:
		r[in.A] = r[in.B] ^ in.Imm
		return retire()
	case OpShli:
		r[in.A] = r[in.B] << (uint64(in.Imm) & 63)
		return retire()
	case OpShri:
		r[in.A] = r[in.B] >> (uint64(in.Imm) & 63)
		return retire()
	case OpNeg:
		r[in.A] = -r[in.B]
		return retire()
	case OpNot:
		r[in.A] = ^r[in.B]
		return retire()
	case OpSlt:
		r[in.A] = b2w(r[in.B] < r[in.C])
		return retire()
	case OpSle:
		r[in.A] = b2w(r[in.B] <= r[in.C])
		return retire()
	case OpSeq:
		r[in.A] = b2w(r[in.B] == r[in.C])
		return retire()
	case OpSne:
		r[in.A] = b2w(r[in.B] != r[in.C])
		return retire()
	case OpSlti:
		r[in.A] = b2w(r[in.B] < in.Imm)
		return retire()
	case OpSlei:
		r[in.A] = b2w(r[in.B] <= in.Imm)
		return retire()
	case OpSeqi:
		r[in.A] = b2w(r[in.B] == in.Imm)
		return retire()
	case OpSnei:
		r[in.A] = b2w(r[in.B] != in.Imm)
		return retire()

	case OpJmp:
		t.PC = int(in.Imm)
		t.Retired++
		return StepResult{Retired: true, Cost: cost}
	case OpJz:
		if r[in.A] == 0 {
			t.PC = int(in.Imm)
		} else {
			t.PC++
		}
		t.Retired++
		return StepResult{Retired: true, Cost: cost}
	case OpJnz:
		if r[in.A] != 0 {
			t.PC = int(in.Imm)
		} else {
			t.PC++
		}
		t.Retired++
		return StepResult{Retired: true, Cost: cost}

	case OpCall:
		fn := int(in.Imm)
		if fn < 0 || fn >= len(m.Prog.Funcs) {
			return m.fault(t, fmt.Sprintf("call to bad function %d", fn))
		}
		if len(t.Frames) >= maxFrames {
			return m.fault(t, "call stack overflow")
		}
		t.pushCall(t.PC + 1)
		t.PC = m.Prog.Funcs[fn].Entry
		t.Retired++
		return StepResult{Retired: true, Cost: cost}
	case OpRet:
		if len(t.Frames) == 0 {
			return m.fault(t, "return with empty call stack")
		}
		t.PC = t.popFrame(r[in.A])
		t.Retired++
		return StepResult{Retired: true, Cost: cost}

	case OpLd:
		r[in.A] = m.memLoad(t, r[in.B]+in.Imm)
		return retire()
	case OpSt:
		m.memStore(t, r[in.B]+in.Imm, r[in.A])
		return retire()
	case OpLdx:
		r[in.A] = m.memLoad(t, r[in.B]+r[in.C])
		return retire()
	case OpStx:
		m.memStore(t, r[in.B]+r[in.C], r[in.A])
		return retire()

	case OpLock:
		id := r[in.A]
		holder, held := m.Locks[id]
		if held {
			if holder == t.ID {
				return m.fault(t, fmt.Sprintf("recursive lock %d", id))
			}
			t.Status = blockedLock
			t.waitObj = id
			return StepResult{}
		}
		obj := SyncObj{ObjLock, id}
		if !m.mayAcquire(t, obj) {
			return StepResult{}
		}
		m.Locks[id] = t.ID
		return retireSync(SyncEvent{Tid: t.ID, Obj: obj, Kind: SyncAcquire})
	case OpUnlock:
		id := r[in.A]
		holder, held := m.Locks[id]
		if !held || holder != t.ID {
			return m.fault(t, fmt.Sprintf("unlock of lock %d not held by tid %d", id, t.ID))
		}
		delete(m.Locks, id)
		res := retireSync(SyncEvent{Tid: t.ID, Obj: SyncObj{ObjLock, id}, Kind: SyncRelease})
		m.wake(blockedLock, id)
		return res
	case OpBarArrive:
		id, count := r[in.B], r[in.C]
		if count <= 0 {
			return m.fault(t, fmt.Sprintf("barrier %d with count %d", id, count))
		}
		b := m.Barriers[id]
		if b == nil {
			b = &BarrierState{}
			m.Barriers[id] = b
		}
		r[in.A] = b.Gen + 1
		b.Arrived++
		if b.Arrived >= count {
			b.Arrived = 0
			b.Gen++
			m.wake(blockedBarrier, id)
		}
		return retireSync(SyncEvent{Tid: t.ID, Obj: SyncObj{objBarrier, id}, Kind: SyncBarArrive, Child: int(r[in.A])})
	case OpBarWait:
		id, want := r[in.B], r[in.A]
		b := m.Barriers[id]
		if b == nil || b.Gen < want {
			t.Status = blockedBarrier
			t.waitObj = id
			return StepResult{}
		}
		return retireSync(SyncEvent{Tid: t.ID, Obj: SyncObj{objBarrier, id}, Kind: SyncBarPass, Child: int(want)})
	case OpCas:
		addr := r[in.B]
		obj := SyncObj{ObjAtomic, addr}
		if !m.mayAcquire(t, obj) {
			return StepResult{}
		}
		if m.Mem.Load(addr) == r[in.C] {
			if m.Hooks.OnMemWrite != nil {
				m.Hooks.OnMemWrite(t.ID, addr, r[in.C], r[in.D])
			}
			m.Mem.Store(addr, r[in.D])
			r[in.A] = 1
		} else {
			r[in.A] = 0
		}
		return retireSync(SyncEvent{Tid: t.ID, Obj: obj, Kind: SyncAtomic})
	case OpFadd:
		addr := r[in.B]
		obj := SyncObj{ObjAtomic, addr}
		if !m.mayAcquire(t, obj) {
			return StepResult{}
		}
		old := m.Mem.Load(addr)
		if m.Hooks.OnMemWrite != nil {
			m.Hooks.OnMemWrite(t.ID, addr, old, old+r[in.C])
		}
		m.Mem.Store(addr, old+r[in.C])
		r[in.A] = old
		return retireSync(SyncEvent{Tid: t.ID, Obj: obj, Kind: SyncAtomic})

	case OpSpawn:
		fn := int(in.Imm)
		if fn < 0 || fn >= len(m.Prog.Funcs) {
			return m.fault(t, fmt.Sprintf("spawn of bad function %d", fn))
		}
		obj := SyncObj{objSpawn, 0}
		if !m.mayAcquire(t, obj) {
			return StepResult{}
		}
		child := &Thread{ID: m.nextTID, PC: m.Prog.Funcs[fn].Entry, SigHandler: t.SigHandler}
		child.Regs[1] = r[in.B]
		m.nextTID++
		m.Threads = append(m.Threads, child)
		m.liveCount++
		r[in.A] = Word(child.ID)
		return retireSync(SyncEvent{Tid: t.ID, Obj: obj, Kind: SyncSpawn, Child: child.ID})
	case OpJoin:
		tid := int(r[in.A])
		child := m.Thread(tid)
		if child == nil || child == t {
			return m.fault(t, fmt.Sprintf("join on bad tid %d", tid))
		}
		switch child.Status {
		case exited:
			r[in.A] = child.ExitVal
			return retireSync(SyncEvent{Tid: t.ID, Obj: SyncObj{objSpawn, 0}, Kind: SyncJoin, Child: tid})
		case Faulted:
			return m.fault(t, fmt.Sprintf("join on faulted tid %d: %s", tid, child.Fault))
		default:
			t.Status = blockedJoin
			t.waitObj = Word(tid)
			return StepResult{}
		}

	case OpSys:
		var args [6]Word
		copy(args[:], r[ArgStageBase:ArgStageBase+MaxArgs])
		res := m.OS.Syscall(m, t, in.Imm, args)
		if res.Block {
			t.Status = BlockedSys
			t.waitObj = 0
			return StepResult{}
		}
		cost += res.Cost
		// With no hook watching single words the writes go in a page at a
		// time; the race detector and watchpoints see them one by one.
		unwatched := m.Hooks.OnMemAccess == nil && m.Hooks.OnMemWrite == nil
		for _, w := range res.Writes {
			cost += int64(len(w.Data)) // data movement into guest memory
			if unwatched {
				m.Mem.StoreRange(w.Addr, w.Data)
				continue
			}
			for i, v := range w.Data {
				m.memStore(t, w.Addr+Word(i), v)
			}
		}
		r[0] = res.Ret
		t.PC++
		t.Retired++
		t.SysRetired++
		t.Status = Runnable
		return StepResult{Retired: true, Cost: cost}
	case OpTid:
		r[in.A] = Word(t.ID)
		return retire()
	case OpSigH:
		fn := int(in.Imm)
		if fn < 0 || fn >= len(m.Prog.Funcs) {
			return m.fault(t, fmt.Sprintf("sig.handler with bad function %d", fn))
		}
		t.SigHandler = fn
		return retire()
	case OpHalt:
		t.ExitVal = r[in.A]
		t.Status = exited
		t.Retired++
		m.liveCount--
		m.emitSync(SyncEvent{Tid: t.ID, Obj: SyncObj{objSpawn, 0}, Kind: SyncExit})
		m.wakeJoiners(t.ID)
		return StepResult{Retired: true, Cost: cost}
	default:
		return m.fault(t, fmt.Sprintf("illegal opcode %d", in.Op))
	}
}

// deliverSignal interrupts t at its current point: the context is pushed
// as a signal frame and control transfers to the handler with the signal
// number as its argument. Delivery retires (like an implicit instruction),
// so it occupies one position in the thread's retired-instruction stream
// and appears in timeslice accounting. A thread with no handler absorbs
// the signal (still retiring the delivery, so record and replay agree); a
// delivery that would overflow the call stack faults the thread, and that
// retires too.
func (m *Machine) deliverSignal(t *Thread, sig Word) StepResult {
	t.SigRetired++
	if t.SigHandler >= 0 && len(t.Frames) >= maxFrames {
		return m.fault(t, "signal delivery overflowed the call stack")
	}
	t.Retired++
	if t.SigHandler < 0 {
		return StepResult{Retired: true, Cost: m.Cost.Sync}
	}
	t.Frames = append(t.Frames, Frame{RetPC: t.PC, Regs: t.Regs, Signal: true})
	var fresh [NumRegs]Word
	fresh[1] = sig
	t.Regs = fresh
	t.PC = m.Prog.Funcs[t.SigHandler].Entry
	t.Status = Runnable
	return StepResult{Retired: true, Cost: m.Cost.Sync}
}

func b2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Checkpointing

// Checkpoint is a complete architectural snapshot of a machine: memory
// image, thread states, lock ownership, and barrier state. Wait queues and
// blocked statuses are deliberately absent — they are derived state that
// re-materialises when restored threads re-attempt their un-retired
// instructions.
type Checkpoint struct {
	MemSnap  *mem.Snapshot
	Threads  []*Thread
	Locks    map[Word]int
	Barriers map[Word]BarrierState
	NextTID  int
}

// Checkpoint captures the machine's architectural state. The machine
// remains usable; future writes copy pages lazily.
func (m *Machine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		MemSnap:  m.Mem.Snapshot(),
		Threads:  make([]*Thread, len(m.Threads)),
		Locks:    make(map[Word]int, len(m.Locks)),
		Barriers: make(map[Word]BarrierState, len(m.Barriers)),
		NextTID:  m.nextTID,
	}
	for i, t := range m.Threads {
		c := t.clone()
		if c.Status.Blocked() {
			c.Status = Runnable
		}
		c.waitObj = 0
		cp.Threads[i] = c
	}
	for k, v := range m.Locks {
		cp.Locks[k] = v
	}
	for k, v := range m.Barriers {
		cp.Barriers[k] = *v
	}
	return cp
}

// Release drops the checkpoint's hold on shared memory pages.
func (cp *Checkpoint) Release() { cp.MemSnap.Release() }

// Hash returns the architectural state hash of the checkpoint; two
// executions are considered identical at a boundary iff their hashes match.
func (cp *Checkpoint) Hash() uint64 {
	return stateHash(cp.MemSnap.Hash(), cp.Threads, cp.Locks, cp.Barriers, cp.NextTID)
}

// Restore builds a fresh machine from the checkpoint. The new machine
// shares memory pages copy-on-write with the checkpoint and any other
// machine restored from it, so concurrent epoch executions are independent.
// It is Reload of a machine that has nothing to reuse.
func (cp *Checkpoint) Restore(prog *Program, os SyscallHandler, cost *CostModel) *Machine {
	m := &Machine{
		Mem:      new(mem.Memory), // released: it maps nothing
		Locks:    make(map[Word]int, len(cp.Locks)),
		Barriers: make(map[Word]*BarrierState, len(cp.Barriers)),
	}
	m.Reload(cp, prog, os, cost)
	return m
}

// Reload makes m, a machine NewMachine or Restore built whose memory has
// since been released, the machine Restore would build from cp:
// architectural state from the checkpoint, no hooks, Now zero and nothing
// diverged. It reuses what m already holds — its
// Thread structs and their frame capacity, its lock and barrier maps, its
// page map, and its cost table when cost equals the model it was built
// from — so a machine reloaded epoch after epoch allocates nothing once
// it has held as many threads, locks, barriers and pages as cp. Threads
// of m's earlier run are overwritten in place.
func (m *Machine) Reload(cp *Checkpoint, prog *Program, os SyscallHandler, cost *CostModel) {
	if cost == nil {
		cost = DefaultCosts()
	}
	m.Mem.Reload(cp.MemSnap)
	m.Prog, m.OS, m.Hooks, m.Cost = prog, os, Hooks{}, cost
	m.Now, m.Diverged = 0, ""
	if *cost != m.tabCost {
		m.costTab, m.tabCost = cost.table(), *cost
	}
	m.nextTID, m.liveCount, m.faultCount = cp.NextTID, 0, 0

	// Thread structs past len(m.Threads) but within its capacity are ones
	// an earlier run had; reuse them too.
	ts := m.Threads[:cap(m.Threads)]
	for len(ts) < len(cp.Threads) {
		ts = append(ts, nil)
	}
	m.Threads = ts[:len(cp.Threads)]
	for i, t := range cp.Threads {
		c := m.Threads[i]
		if c == nil {
			c = new(Thread)
			m.Threads[i] = c
		}
		t.copyInto(c)
		if c.Status.Live() {
			m.liveCount++
		}
		if c.Status == Faulted {
			m.faultCount++
		}
	}

	clear(m.Locks)
	maps.Copy(m.Locks, cp.Locks)
	maps.DeleteFunc(m.Barriers, func(k Word, _ *BarrierState) bool {
		_, keep := cp.Barriers[k]
		return !keep
	})
	for k, v := range cp.Barriers {
		b := m.Barriers[k]
		if b == nil {
			b = new(BarrierState)
			m.Barriers[k] = b
		}
		*b = v
	}
}

// StateHash returns the machine's current architectural state hash.
func (m *Machine) StateHash() uint64 {
	return stateHash(m.Mem.Hash(), m.Threads, m.Locks, m.Barriers, m.nextTID)
}

// barrier is a barrier's state as a checkpoint holds it, or as a machine
// does.
type barrier interface{ state() BarrierState }

func (b BarrierState) state() BarrierState { return b }

// stateHashIDs is how many lock or barrier ids stateHash sorts without
// allocating.
const stateHashIDs = 32

func stateHash[B barrier](memHash uint64, threads []*Thread, locks map[Word]int, barriers map[Word]B, nextTID int) uint64 {
	h := memHash
	h = mix64(h, uint64(nextTID))
	h = mix64(h, uint64(len(threads)))
	for _, t := range threads {
		h = t.stateHash(h)
	}
	// Map iteration order is randomised; fold in sorted order.
	var buf [stateHashIDs]Word
	ids := buf[:0]
	for id := range locks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		h = mix64(h, uint64(id)*0x9e37+uint64(locks[id])+1)
	}
	ids = ids[:0]
	for id, b := range barriers {
		if b.state() == (BarrierState{}) {
			continue // untouched barriers hash like absent ones
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		b := barriers[id].state()
		h = mix64(h, uint64(id)*0x517c+uint64(b.Gen)*31+uint64(b.Arrived)+3)
	}
	return h
}

// DescribeState summarises thread states for diagnostics.
func (m *Machine) DescribeState() string {
	s := ""
	for _, t := range m.Threads {
		s += fmt.Sprintf("tid %d: pc=%d retired=%d %s", t.ID, t.PC, t.Retired, t.Status)
		if t.Status.Blocked() {
			s += fmt.Sprintf(" wait=%d", t.waitObj)
		}
		if t.Fault != "" {
			s += " fault=" + t.Fault
		}
		s += "\n"
	}
	return s
}
