package vm

import "fmt"

// Status describes what a thread is doing. Every Blocked* status means the
// thread's PC still points at the instruction that could not retire; the
// instruction re-executes when the thread is next scheduled. Because blocked
// instructions have not retired, blocked-ness is derived state: checkpoints
// restore every live thread as Runnable and the blocking condition is
// re-discovered on the next step. This is what makes mid-epoch checkpoints
// exact without snapshotting wait queues.
type Status uint8

const (
	Runnable Status = iota
	blockedLock
	blockedBarrier
	blockedJoin
	BlockedSys
	blockedOrder // held back by sync-order enforcement during epoch-parallel runs
	exited
	Faulted
)

var statusNames = [...]string{
	Runnable: "runnable", blockedLock: "blocked-lock", blockedBarrier: "blocked-barrier",
	blockedJoin: "blocked-join", BlockedSys: "blocked-sys", blockedOrder: "blocked-order",
	exited: "exited", Faulted: "faulted",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Blocked reports whether the status is any of the waiting states.
func (s Status) Blocked() bool {
	switch s {
	case blockedLock, blockedBarrier, blockedJoin, BlockedSys, blockedOrder:
		return true
	}
	return false
}

// Live reports whether the thread can still make progress eventually.
func (s Status) Live() bool { return s != exited && s != Faulted }

// Frame is a saved caller context pushed by CALL, or an interrupted context
// pushed by asynchronous signal delivery. Returning from a signal frame
// restores the interrupted register file exactly (no r0 result).
type Frame struct {
	RetPC  int
	Regs   [NumRegs]Word
	Signal bool
}

// Thread is one guest thread. All fields are plain values so a deep copy of
// the struct (plus the frame slice) is a complete checkpoint of the thread.
type Thread struct {
	ID     int
	PC     int
	Regs   [NumRegs]Word
	Frames []Frame
	Status Status

	// Retired counts retired instructions. Epoch boundaries are expressed
	// as per-thread retired-instruction targets: "run thread T until it has
	// retired N instructions" identifies the same program point in any
	// execution that read the same values, which is what lets the
	// epoch-parallel run stop exactly where the thread-parallel run did.
	Retired uint64

	// SyncRetired and SysRetired count retired synchronisation operations
	// and syscalls; they index this thread's cursor into the sync-order and
	// syscall logs.
	SyncRetired uint64
	SysRetired  uint64

	ExitVal Word
	Fault   string

	// SigHandler is the function index invoked on signal delivery, or -1.
	// Architectural state: set by OpSigH, inherited across SPAWN.
	SigHandler int

	// SigRetired counts delivered signals; it indexes this thread's cursor
	// into the signal log.
	SigRetired uint64

	// waitObj records what a blocked thread is waiting for (lock id,
	// barrier id, or tid for join). Derived state: not checkpointed.
	waitObj Word
}

// pushCall saves the caller's context with return address retPC and gives
// the callee a fresh register file holding only its staged arguments. Out
// of line so that its two register-file temporaries are not part of the
// interpreter loops' own stack frames.
//
//go:noinline
func (t *Thread) pushCall(retPC int) {
	t.Frames = append(t.Frames, Frame{RetPC: retPC, Regs: t.Regs})
	var fresh [NumRegs]Word
	copy(fresh[1:1+MaxArgs], t.Regs[ArgStageBase:ArgStageBase+MaxArgs])
	t.Regs = fresh
}

// popFrame returns from the innermost frame, which must exist: the saved
// register file is restored, ret lands in r0 unless the frame is a signal
// frame (a signal return restores r0 untouched), and the pc to resume at
// is returned.
func (t *Thread) popFrame(ret Word) int {
	f := &t.Frames[len(t.Frames)-1]
	t.Regs = f.Regs
	if !f.Signal {
		t.Regs[0] = ret
	}
	t.Frames = t.Frames[:len(t.Frames)-1]
	return f.RetPC
}

// clone returns an independent deep copy of the thread.
func (t *Thread) clone() *Thread {
	c := new(Thread)
	t.copyInto(c)
	return c
}

// copyInto makes c an independent deep copy of t, keeping c's frame
// storage when it is large enough.
func (t *Thread) copyInto(c *Thread) {
	frames := c.Frames[:0]
	*c = *t
	c.Frames = append(frames, t.Frames...)
}

// stateHash folds the thread's architectural state (registers, PC, frames,
// retirement counters, liveness) into h. Blocked statuses hash identically
// to Runnable because the blocking instruction has not retired.
func (t *Thread) stateHash(h uint64) uint64 {
	h = mix64(h, uint64(t.ID))
	h = mix64(h, uint64(t.PC))
	h = mix64(h, uint64(t.Retired))
	for _, r := range t.Regs {
		h = mix64(h, uint64(r))
	}
	for _, f := range t.Frames {
		h = mix64(h, uint64(f.RetPC))
		if f.Signal {
			h = mix64(h, 0x5160)
		}
		for _, r := range f.Regs {
			h = mix64(h, uint64(r))
		}
	}
	h = mix64(h, uint64(t.SigHandler+1))
	h = mix64(h, t.SigRetired)
	switch t.Status {
	case exited:
		h = mix64(h, 0xE^uint64(t.ExitVal))
	case Faulted:
		h = mix64(h, 0xF)
	default:
		h = mix64(h, 0x1)
	}
	return h
}

// mix64 is a splitmix64-style combiner used for state hashing.
func mix64(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}
