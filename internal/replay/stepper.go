// Single-epoch execution, the one place an epoch is replayed: a Stepper
// makes a machine a follower of one epoch's log (epoch.Follow) and drives
// it either to completion at batch speed (Run — what every replay plan
// and checkpoint reconstruction does per epoch) or one retired guest
// instruction at a time (Step), pausing between instructions with the
// machine in a fully inspectable state. Both are the same scheduler
// advanced by different amounts, so a stepped epoch lands on exactly the
// state and cost a batch replay computes. The debug session
// (internal/debug) is built on it: every stop point a debugger can reach
// is "boundary checkpoint + k Stepper.Step calls", which is what makes
// positions comparable across replay plans.

package replay

import (
	"fmt"
	"math"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/vm"
)

// StepEvent describes one retired guest instruction.
type StepEvent struct {
	Tid int
	// PC is the program counter the instruction retired at; for an
	// asynchronous signal delivery, the pc it interrupted.
	PC int
	// Signal marks the event as a signal delivery rather than the
	// instruction at PC executing.
	Signal bool
}

// Stepper is an epoch.Exec it can pause: scheduled (non-certified) epochs
// follow the recorded timeslice schedule, certified epochs carry no
// schedule and free-run under the recorded sync-order gate, exactly the
// epoch-parallel logging run the recorder skipped. What the Stepper adds
// is replay's own: pausing between any two instructions, and the verdict —
// the Exec's end-of-epoch proof and the recorded end hash are checked
// inside the call that retires the final instruction, so a Stepper that
// reports Done has proved the epoch reproduced the recording.
type Stepper struct {
	m   *vm.Machine
	ep  *dplog.EpochLog
	x   *epoch.Exec
	uni *sched.Uni // x.Uni, a hop nearer for Step

	done bool
	err  error
}

// NewStepper prepares m — which must hold ep's start state — for
// execution of ep (see epoch.Follow for what that installs on the
// machine and replaces from a previous epoch's Stepper). quantum is the
// recording's scheduling quantum (zero = default), used only by the
// certified free-run path. An epoch that is already complete (empty
// schedule, all targets met at entry) is verified immediately; the error
// is that verification's outcome.
func NewStepper(m *vm.Machine, ep *dplog.EpochLog, quantum int64, costs *vm.CostModel) (*Stepper, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	x := epoch.Follow(m, ep, ep.Certified, quantum, costs)
	s := &Stepper{m: m, ep: ep, x: x, uni: x.Uni}
	if err := s.advance(0); err != nil {
		return nil, err
	}
	return s, nil
}

// Done reports whether the epoch has fully (and verifiably) replayed.
func (s *Stepper) Done() bool { return s.done }

// LoopRetired returns how many of those instructions retired inside the
// scheduler's slice loop rather than by individual machine steps.
func (s *Stepper) LoopRetired() uint64 { return s.uni.LoopRetired }

// Epoch returns the epoch log being stepped.
func (s *Stepper) Epoch() *dplog.EpochLog { return s.ep }

// Cycles returns the modelled epoch cost consumed so far (epoch.Exec's
// formula). When Done, it is the cost of replaying the whole epoch.
func (s *Stepper) Cycles() int64 { return s.x.Cycles() }

// NextTid reports which thread the scheduler will run next, when known.
func (s *Stepper) NextTid() (int, bool) {
	if s.done || s.err != nil {
		return 0, false
	}
	return s.uni.Next()
}

// Run drains the rest of the epoch at batch speed and returns its cost.
func (s *Stepper) Run() (int64, error) {
	if err := s.advance(math.MaxUint64); err != nil {
		return 0, err
	}
	return s.Cycles(), nil
}

// Step retires exactly one guest instruction and returns what retired.
// Calling Step on a Done or failed Stepper returns an error. Nothing
// listens to the machine for the event's sake, so the instruction runs as
// it would in a batch replay and a profiler's OnRetire is left alone.
func (s *Stepper) Step() (ev StepEvent, err error) {
	if s.done {
		return StepEvent{}, fmt.Errorf("replay: epoch %d already complete", s.ep.Index)
	}
	sigs := s.x.Delivered()
	if s.ep.Certified {
		ev, err = s.stepFree()
	} else {
		// Under a schedule, what retires is known before it does: the
		// slice names the thread, and the thread's pc is where it retires
		// (or what a signal interrupts).
		if tid, ok := s.uni.Next(); ok {
			ev = StepEvent{Tid: tid, PC: s.m.Threads[tid].PC}
		}
		err = s.advance(1)
	}
	ev.Signal = s.x.Delivered() != sigs
	return ev, err
}

// stepFree is Step for a certified epoch. It free-runs, and the thread the
// scheduler would pick may block at its attempt (a held lock, the
// sync-order gate) and leave the retirement to the next in line, so the
// event is read off the threads' retired counts afterwards.
func (s *Stepper) stepFree() (ev StepEvent, err error) {
	type at struct {
		pc      int
		retired uint64
	}
	was := make([]at, len(s.m.Threads))
	for i, t := range s.m.Threads {
		was[i] = at{t.PC, t.Retired}
	}
	err = s.advance(1)
	for i, w := range was {
		if t := s.m.Threads[i]; t.Retired != w.retired {
			ev = StepEvent{Tid: t.ID, PC: w.pc}
		}
	}
	return ev, err
}

// advance retires up to n instructions and, when that completes the
// epoch, verifies it.
func (s *Stepper) advance(n uint64) error {
	if s.err != nil || s.done {
		return s.err
	}
	done, err := s.uni.Advance(n)
	if err != nil {
		return s.fail(err)
	}
	if done {
		return s.finish()
	}
	return nil
}

// fail records a sticky error. A certified epoch was committed on the
// strength of a race-freedom certificate that says any sync-order-
// respecting execution reaches the recorded end state, so every failure
// of one wraps ErrCertViolated rather than reporting a divergence.
func (s *Stepper) fail(err error) error {
	if s.ep.Certified {
		s.err = fmt.Errorf("%w: epoch %d: %v", ErrCertViolated, s.ep.Index, err)
	} else {
		s.err = fmt.Errorf("replay: epoch %d: %w", s.ep.Index, err)
	}
	return s.err
}

// finish gives the verdict on an epoch that met its targets.
func (s *Stepper) finish() error {
	if err := s.x.Leftover(); err != nil {
		return s.fail(err)
	}
	if h := s.m.StateHash(); h != s.ep.EndHash {
		return s.fail(fmt.Errorf("end state hash %016x != recorded %016x", h, s.ep.EndHash))
	}
	s.done = true
	return nil
}
