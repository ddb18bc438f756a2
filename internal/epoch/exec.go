package epoch

import (
	"errors"
	"fmt"

	"doubleplay/internal/dplog"
	"doubleplay/internal/sched"
	"doubleplay/internal/vm"
)

// Exec is the following role of a machine: one epoch executed on one CPU
// under what a LiveLog recorded for it. Logged syscall results are
// injected, signals are re-delivered at their retired-instruction counts,
// every thread stops at its target, and the interleaving is pinned one of
// two ways: gated, a free round-robin run whose sync operations retire in
// the recorded order (the epoch-parallel run, and the replay of a
// certified epoch, which has no schedule); or scheduled, the timeslice log
// of an earlier gated run reproduced exactly (every other replay). Run,
// replay.Stepper and through it the debugger are this type driven by
// different amounts; it owns the scheduler, the cost formula and the proof
// that a run which met its targets consumed exactly what was logged.
type Exec struct {
	// Uni is the epoch's scheduler. Callers drive it (Run, Advance) and
	// may set LogSchedule and the Trace fields before the first advance.
	Uni *sched.Uni

	inj   injectOS
	sigs  injectSignals
	gate  *gate // nil when scheduled
	costs *vm.CostModel
}

// Follow makes m — which must hold ep's start state — a follower of ep,
// taking over its syscall handler and its MayAcquire and OnSync hooks from
// whatever an earlier epoch's Exec left there; Uni delivers ep's signals.
// gated selects ep.SyncOrder as the constraint, otherwise ep.Schedule;
// quantum (zero: the default) is the free run's timeslice.
func Follow(m *vm.Machine, ep *dplog.EpochLog, gated bool, quantum int64, costs *vm.CostModel) *Exec {
	var g *gate
	if gated {
		g = new(gate)
	}
	return follow(m, ep, g, quantum, costs)
}

// follow is Follow gated by g, which it resets to ep.SyncOrder, or
// scheduled when g is nil.
func follow(m *vm.Machine, ep *dplog.EpochLog, g *gate, quantum int64, costs *vm.CostModel) *Exec {
	x := &Exec{
		Uni:   sched.NewUni(m),
		inj:   *newInjectOS(ep.Syscalls),
		sigs:  *newInjectSignals(ep.Signals),
		costs: costs,
	}
	m.OS = &x.inj
	if len(ep.Signals) > 0 {
		x.Uni.Signals = &x.sigs
	}
	m.Hooks.MayAcquire, m.Hooks.OnSync = nil, nil
	x.Uni.Targets = ep.Targets
	if quantum > 0 {
		x.Uni.Quantum = quantum
	}
	if g != nil {
		g.reset(ep.SyncOrder)
		x.gate = g
		m.Hooks.MayAcquire, m.Hooks.OnSync = g.MayAcquire, g.OnSync
	} else {
		x.Uni.Follow = ep.Schedule
		if x.Uni.Follow == nil {
			x.Uni.Follow = []dplog.Slice{} // an empty schedule is still a schedule
		}
	}
	return x
}

// Injected returns the syscalls injected so far.
func (x *Exec) Injected() int { return x.inj.Injected }

// Delivered returns the signals re-delivered so far.
func (x *Exec) Delivered() int { return x.sigs.Injected }

// Enforced returns the gated sync operations consumed so far; always zero
// for a scheduled epoch, which has no gate to consult.
func (x *Exec) Enforced() int {
	if x.gate == nil {
		return 0
	}
	return x.gate.Used()
}

// Cycles returns the modelled cost of the epoch so far: the scheduler's
// cycles plus a surcharge per injected syscall and per gate consultation.
func (x *Exec) Cycles() int64 {
	return x.Uni.Cycles +
		int64(x.Injected())*x.costs.InjectSysEvent +
		int64(x.Enforced())*x.costs.EnforceSyncEvent
}

// Leftover is the end-of-epoch proof, for a run that reached its targets:
// it consumed exactly the recorded streams, on as many threads as were
// recorded. Anything left over means the execution took a different path
// even though the per-thread retirement counts lined up.
func (x *Exec) Leftover() error {
	if x.gate != nil {
		if r := x.gate.Remaining(); r != 0 {
			return fmt.Errorf("%d recorded sync ops never performed", r)
		}
		if gateErr := x.gate.Err(); gateErr != "" {
			return errors.New(gateErr)
		}
	}
	if r := x.inj.Remaining(); r != 0 {
		return fmt.Errorf("%d recorded syscalls never issued", r)
	}
	if r := x.sigs.Remaining(); r != 0 {
		return fmt.Errorf("%d recorded signals never delivered", r)
	}
	if got, want := len(x.Uni.M.Threads), len(x.Uni.Targets); got != want {
		return fmt.Errorf("thread count %d differs from recorded %d", got, want)
	}
	return nil
}
