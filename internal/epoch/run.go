package epoch

import (
	"errors"
	"fmt"

	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// Boundary is one epoch boundary captured from the thread-parallel run: an
// architectural checkpoint, a frozen snapshot of the simulated world while
// a recorder still needs one, and the simulated time at which the
// checkpoint was taken.
type Boundary struct {
	Index int
	Cycle int64
	CP    *vm.Checkpoint

	// World is the simulated world at the boundary, and a recording's
	// in-flight window is the only place it lives: the latest boundary,
	// and while an epoch is pending that epoch's start, whose world forward
	// recovery re-runs against. The recorder drops it when the boundary's
	// epoch commits. A boundary a recording returns, like one Snapshot
	// takes or replay rebuilds, has none: replay injects every syscall
	// result from the log.
	World *simos.World
	Hash  uint64

	// MappedPages is the checkpoint's memory footprint, used by the cost
	// model to price taking the checkpoint.
	MappedPages int
}

// Targets returns the per-thread retired-instruction counts at this
// boundary, which define where the preceding epoch ends.
func (b *Boundary) Targets() []uint64 {
	out := make([]uint64, len(b.CP.Threads))
	for i, t := range b.CP.Threads {
		out[i] = t.Retired
	}
	return out
}

// Snapshot checkpoints m as the boundary before epoch index, reached at
// cycle, whose state hash the caller already holds — the end hash an Exec
// just proved, or a log's recorded one. World stays nil: a follower never
// consults one.
func Snapshot(index int, cycle int64, m *vm.Machine, hash uint64) *Boundary {
	return &Boundary{
		Index:       index,
		Cycle:       cycle,
		CP:          m.Checkpoint(),
		Hash:        hash,
		MappedPages: m.Mem.PageCount(),
	}
}

// Capture snapshots a running machine and its world into a boundary.
func Capture(index int, cycle int64, m *vm.Machine, w *simos.World) *Boundary {
	b := Snapshot(index, cycle, m, 0)
	b.World, b.Hash = w.Clone(), b.CP.Hash()
	return b
}

// RunSpec describes one epoch-parallel execution: start from Start, run all
// threads timesliced on one CPU to the per-thread Targets, constrained by
// the recorded sync order and fed by recorded syscall results.
type RunSpec struct {
	Prog      *vm.Program
	Start     *Boundary
	Targets   []uint64
	SyncOrder []dplog.SyncRecord
	Syscalls  []dplog.SyscallRecord
	Signals   []dplog.SignalRecord
	Quantum   int64
	Costs     *vm.CostModel

	// DisableEnforcement turns off the sync-order gate (the ablation
	// configuration): lock-order differences then surface as divergences.
	DisableEnforcement bool

	// Observers, if set, are chained after the gate's own hooks; the race
	// detector attaches here.
	OnSync      func(vm.SyncEvent)
	OnMemAccess func(tid int, addr vm.Word, write bool)

	// Trace, when set, receives one "slice" span per executed timeslice
	// with epoch-local timestamps (cycle 0 = epoch start on the virtual
	// CPU). Callers splice the buffer to the epoch's pipeline-assigned
	// position; see trace.Sink.Splice.
	Trace *trace.Sink

	// Profile, when set, is attached to the epoch's machine and observes
	// every retired instruction; callers snapshot it after the run.
	Profile *profile.Profiler
}

// RunResult is the outcome of an epoch-parallel execution.
type RunResult struct {
	M        *vm.Machine   // final machine state
	Schedule []dplog.Slice // the uniprocessor timeslice log — the replay log
	Cycles   int64         // serialized execution time on the single CPU
	Injected int           // syscalls injected
	Enforced int           // gated sync ops consumed
	// LoopRetired is how many of the epoch's instructions retired inside
	// the scheduler's slice loop (sched.Uni.LoopRetired).
	LoopRetired uint64
	EndHash     uint64
}

// Slot is one spare CPU of the epoch-parallel pass: the machine its
// epochs run on, kept from one epoch to the next. Each run reloads it from
// the epoch's start checkpoint (vm.Machine.Reload) instead of restoring a
// new machine, so a slot that has run an epoch of a recording runs the
// next without building the CPU again. The slot also keeps the run's
// scratch: the timeslice log, which a run hands over as a copy of exact
// length, and the sync-order gate, reset for every epoch. The zero Slot
// is ready to use; a slot runs one epoch at a time.
type Slot struct {
	m     *vm.Machine
	sched []dplog.Slice
	gate  gate
}

// Run executes one epoch; its free function form makes a new slot for
// the run. A nil error means the epoch ran to its targets under the
// recorded constraints; the caller still must compare EndHash against the
// next boundary to detect data-race divergence.
func Run(spec RunSpec) (*RunResult, error) {
	return new(Slot).Run(spec)
}

// Run executes one epoch on the slot's machine. The result's M is that
// machine: it is valid until the slot's next run, which releases its
// memory if the caller has not. A caller done with M sooner may release
// M.Mem itself, as the recorder does at commit, and the pages go back at
// once.
func (s *Slot) Run(spec RunSpec) (*RunResult, error) {
	if s.m == nil {
		s.m = spec.Start.CP.Restore(spec.Prog, nil, spec.Costs)
	} else {
		s.m.Mem.Release() // a no-op when the caller released it
		s.m.Reload(spec.Start.CP, spec.Prog, nil, spec.Costs)
	}
	m := s.m
	x := follow(m, &dplog.EpochLog{
		Targets:   spec.Targets,
		SyncOrder: spec.SyncOrder,
		Syscalls:  spec.Syscalls,
		Signals:   spec.Signals,
	}, &s.gate, spec.Quantum, spec.Costs)
	if spec.DisableEnforcement {
		m.Hooks.MayAcquire = nil // the gate still watches the order, see gate.OnSync
	}
	if observe := spec.OnSync; observe != nil { // a copy, so spec stays off the heap
		gated := m.Hooks.OnSync
		m.Hooks.OnSync = func(ev vm.SyncEvent) {
			gated(ev)
			observe(ev)
		}
	}
	m.Hooks.OnMemAccess = spec.OnMemAccess
	if spec.Profile != nil {
		spec.Profile.Attach(m)
	}
	x.Uni.LogSchedule, x.Uni.Log = true, s.sched[:0]
	x.Uni.Trace = spec.Trace

	err := x.Uni.Run()
	s.sched = x.Uni.Log
	if err == nil {
		// The run reached its targets; it must also have consumed exactly
		// the recorded constraint streams.
		if left := x.Leftover(); left != nil {
			err = fmt.Errorf("%w: %v", sched.ErrDiverged, left)
		}
	}
	res := &RunResult{
		M:           m,
		Schedule:    exact(s.sched),
		Cycles:      x.Cycles(),
		Injected:    x.Injected(),
		Enforced:    x.Enforced(),
		LoopRetired: x.Uni.LoopRetired,
	}
	if err == nil {
		res.EndHash = m.StateHash()
	}
	return res, err
}

// exact returns a copy of s at its exact length, or nil when s is empty:
// what a recording keeps of a log built in scratch.
func exact[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	out := make(S, len(s))
	copy(out, s)
	return out
}

// IsDivergence reports whether err indicates the execution departed from
// the recording (as opposed to an internal failure).
func IsDivergence(err error) bool {
	return errors.Is(err, sched.ErrDiverged)
}
