// Package dplog defines the log formats DoublePlay records and replays:
// per-epoch timeslice schedules, syscall results, and sync-operation order,
// plus a compact binary codec used both for persistence and for the
// log-size comparisons in the evaluation.
//
// On disk a recording is a seekable, sectioned, optionally compressed
// container (format v6): one self-contained section per epoch behind a
// trailing offset index, so Reader.Seek(epoch) decodes epoch N without
// touching epochs 0..N-1, and a truncated log recovers every intact
// section. docs/FORMAT.md is the normative byte-level specification. The
// read side is one decoder (decode.go) under one file-level reader
// (reader.go), and it reads v6 alone.
//
// The central point of the paper is visible in these types: because every
// epoch executes on a single processor, the information needed to replay it
// is only the timeslice schedule ([]Slice) and the syscall results — there
// is no shared-memory access-order log at all. Compare with the CREW
// page-ownership log in internal/baseline, which is what a conventional
// multiprocessor replay system must record.
package dplog

import (
	"fmt"

	"doubleplay/internal/vm"
)

// Slice is one timeslice of the uniprocessor schedule: thread Tid ran and
// retired N instructions before the scheduler switched away.
type Slice struct {
	Tid int
	N   uint64
}

// SyscallRecord captures one retired syscall: identity for mismatch
// detection, the result value, and every guest-memory write the syscall
// performed, so replay can inject the effect without a simulated OS.
type SyscallRecord struct {
	Tid    int
	Num    vm.Word
	Args   [6]vm.Word
	Ret    vm.Word
	Writes []vm.MemWrite
}

// Matches reports whether a syscall attempt has the same identity as the
// recorded one. A mismatch means the executing run has diverged from the
// recorded run before this syscall.
func (r *SyscallRecord) Matches(tid int, num vm.Word, args [6]vm.Word) bool {
	return r.Tid == tid && r.Num == num && r.Args == args
}

// SyncRecord is one gated synchronisation operation (lock acquire, atomic
// op, or spawn) in global retirement order. The epoch-parallel execution
// enforces, per object, the thread order these records dictate.
type SyncRecord struct {
	Tid  int
	Kind vm.ObjKind
	ID   vm.Word
}

// SignalRecord pinpoints one asynchronous signal delivery: signal Sig was
// delivered to thread Tid when it had retired exactly Retired
// instructions. Replay re-delivers at that precise point.
type SignalRecord struct {
	Tid     int
	Retired uint64
	Sig     vm.Word
}

// EpochLog is everything recorded about one epoch.
type EpochLog struct {
	Index int

	// Targets give, for every thread id that exists by the end of the
	// epoch, its retired-instruction count at the epoch boundary. They
	// define where the epoch ends in every execution.
	Targets []uint64

	// SyncOrder is the gated sync-op order observed by the thread-parallel
	// run within this epoch. It is consumed by the epoch-parallel logging
	// run (to constrain it) and is not needed for replay — except for
	// certified epochs, where it IS the replay log (see Certified).
	SyncOrder []SyncRecord

	// Syscalls are the syscall results retired within this epoch, in global
	// retirement order (per-thread order is preserved, which is all
	// injection requires).
	Syscalls []SyscallRecord

	// Signals are the asynchronous deliveries within this epoch, each
	// pinned to a retired-instruction count.
	Signals []SignalRecord

	// Schedule is the epoch-parallel uniprocessor timeslice log — together
	// with Syscalls and Signals, the complete replay log for this epoch.
	// Nil for certified epochs, which never ran epoch-parallel.
	Schedule []Slice

	// Certified marks an epoch committed without the epoch-parallel
	// verification pass, on the strength of a race-free static certificate
	// (analyze.Certificate). Such an epoch has no Schedule; replay instead
	// free-runs under the SyncOrder gate, which the certificate proves
	// sufficient to reproduce EndHash. A hash mismatch replaying a
	// certified epoch is a soundness bug, not a divergence.
	Certified bool

	// StartHash and EndHash are the architectural state hashes at the
	// epoch's boundaries, recorded for replay verification.
	StartHash uint64
	EndHash   uint64

	// CommitHash is the running hash of all external output at the epoch's
	// end boundary: the output that may be released to the outside world
	// once this epoch verifies. It makes the paper's deferred output commit
	// visible in the log — output beyond the last verified epoch is still
	// speculative.
	CommitHash uint64
}

// Recording is the complete replay log of one program execution.
type Recording struct {
	Program string
	Workers int
	Seed    int64
	Epochs  []*EpochLog

	// FinalHash is the architectural state hash at termination.
	FinalHash uint64

	// OutputHash summarises the external output the guest produced, so
	// replayed runs can be checked against recorded output commits.
	OutputHash uint64

	// Quantum is the uniprocessor scheduling quantum the recorder would
	// have used for the epoch-parallel run. Certified epochs carry no
	// Schedule, so replay needs it to reconstruct the free-run timeslicing
	// deterministically. Zero means the scheduler default.
	Quantum int64
}

// Slices returns the total number of timeslice records.
func (r *Recording) Slices() int {
	n := 0
	for _, e := range r.Epochs {
		n += len(e.Schedule)
	}
	return n
}

// SyscallCount returns the total number of recorded syscalls.
func (r *Recording) SyscallCount() int {
	n := 0
	for _, e := range r.Epochs {
		n += len(e.Syscalls)
	}
	return n
}

// SyncOps returns the total number of recorded gated sync operations.
func (r *Recording) SyncOps() int {
	n := 0
	for _, e := range r.Epochs {
		n += len(e.SyncOrder)
	}
	return n
}

// SignalCount returns the total number of recorded signal deliveries.
func (r *Recording) SignalCount() int {
	n := 0
	for _, e := range r.Epochs {
		n += len(e.Signals)
	}
	return n
}

// ReplaySize reports the encoded size in bytes of the information required
// to replay the execution: schedules, syscall records, and epoch targets.
// For ordinary epochs the sync-order log is excluded — it exists only to
// steer the epoch-parallel run during recording and is discarded
// afterwards, exactly as in the paper. A certified epoch has no schedule
// and replays from its sync order instead, so there the sync part IS
// replay state and counts.
//
// This is flat information accounting — header plus bare epoch bodies,
// no section framing, index, or compression — so it is the stable
// apples-to-apples metric the paper's log-size experiment reports,
// independent of how the v6 container lays the bytes out on disk.
func (r *Recording) ReplaySize() int {
	replay, _ := r.Sizes()
	return replay
}

// Sizes reports ReplaySize and the full size, which also counts every
// epoch's transient sync-order log, under the same flat framing-free
// accounting, from one walk of the encoder.
func (r *Recording) Sizes() (replay, full int) {
	var e encoder
	e.header(headerOf(r), len(r.Epochs))
	replay, full = len(e.b), len(e.b)
	for _, ep := range r.Epochs {
		var n int
		e.body, n = encodeEpochBody(e.body[:0], ep) // one epoch's worth of buffer, not the file's
		replay += n
		full += len(e.body)
	}
	return replay, full
}

// String summarises the recording.
func (r *Recording) String() string {
	return fmt.Sprintf("Recording(%s, %d epochs, %d slices, %d syscalls, %d sync ops, %d replay bytes)",
		r.Program, len(r.Epochs), r.Slices(), r.SyscallCount(), r.SyncOps(), r.ReplaySize())
}
