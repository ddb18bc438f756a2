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

// ErrDiverged wraps sched.ErrDiverged for callers of this package.
var ErrDiverged = sched.ErrDiverged

// Boundary is one epoch boundary captured from the thread-parallel run: an
// architectural checkpoint, a frozen snapshot of the simulated world, and
// the simulated time at which the checkpoint was taken.
type Boundary struct {
	Index int
	Cycle int64
	CP    *vm.Checkpoint
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

// Capture snapshots a running machine and its world into a boundary.
func Capture(index int, cycle int64, m *vm.Machine, w *simos.World) *Boundary {
	cp := m.Checkpoint()
	return &Boundary{
		Index:       index,
		Cycle:       cycle,
		CP:          cp,
		World:       w.Clone(),
		Hash:        cp.Hash(),
		MappedPages: m.Mem.PageCount(),
	}
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
	Trace trace.Recorder

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

// Run executes one epoch. A nil error means the epoch ran to its targets
// under the recorded constraints; the caller still must compare EndHash
// against the next boundary to detect data-race divergence.
func Run(spec RunSpec) (*RunResult, error) {
	if spec.Quantum <= 0 {
		spec.Quantum = sched.DefaultQuantum
	}
	inj := NewInjectOS(spec.Syscalls)
	m := spec.Start.CP.Restore(spec.Prog, inj, spec.Costs)
	sigs := NewInjectSignals(spec.Signals)
	if len(spec.Signals) > 0 {
		m.Hooks.PendingSignal = sigs.Pending
	}

	gate := NewGate(spec.SyncOrder)
	if !spec.DisableEnforcement {
		m.Hooks.MayAcquire = gate.MayAcquire
	}
	m.Hooks.OnSync = func(ev vm.SyncEvent) {
		gate.OnSync(ev)
		if spec.OnSync != nil {
			spec.OnSync(ev)
		}
	}
	m.Hooks.OnMemAccess = spec.OnMemAccess
	if spec.Profile != nil {
		spec.Profile.Attach(m)
	}

	uni := sched.NewUni(m)
	uni.Quantum = spec.Quantum
	uni.Targets = spec.Targets
	uni.LogSchedule = true
	uni.Trace = spec.Trace

	err := uni.Run()
	res := &RunResult{
		M:        m,
		Schedule: uni.Log,
		Injected: inj.Injected,
		Enforced: gate.Used(),
	}
	res.LoopRetired = uni.LoopRetired
	res.Cycles = uni.Cycles +
		int64(inj.Injected)*spec.Costs.InjectSysEvent +
		int64(gate.Used())*spec.Costs.EnforceSyncEvent
	if err != nil {
		return res, err
	}
	// The run reached its targets; cross-check that it consumed exactly the
	// recorded constraint streams. Leftovers mean the execution took a
	// different path even though per-thread retirement counts lined up.
	if r := gate.Remaining(); r != 0 {
		return res, fmt.Errorf("%w: %d recorded sync ops never performed", ErrDiverged, r)
	}
	if gateErr := gate.Err(); gateErr != "" {
		return res, fmt.Errorf("%w: %s", ErrDiverged, gateErr)
	}
	if r := inj.Remaining(); r != 0 {
		return res, fmt.Errorf("%w: %d recorded syscalls never issued", ErrDiverged, r)
	}
	if r := sigs.Remaining(); r != 0 {
		return res, fmt.Errorf("%w: %d recorded signals never delivered", ErrDiverged, r)
	}
	if len(m.Threads) != len(spec.Targets) {
		return res, fmt.Errorf("%w: thread count %d differs from recorded %d",
			ErrDiverged, len(m.Threads), len(spec.Targets))
	}
	res.EndHash = m.StateHash()
	return res, nil
}

// IsDivergence reports whether err indicates the execution departed from
// the recording (as opposed to an internal failure).
func IsDivergence(err error) bool {
	return errors.Is(err, sched.ErrDiverged)
}
