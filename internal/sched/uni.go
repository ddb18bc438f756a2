package sched

import (
	"errors"
	"fmt"
	"math"

	"doubleplay/internal/dplog"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// ErrDiverged reports that an epoch-parallel or replay execution departed
// from the recorded execution (sync-order deadlock, syscall mismatch, or a
// thread overshooting/undershooting its epoch target).
var ErrDiverged = errors.New("sched: execution diverged from recording")

// ErrLogExhausted reports a replay that consumed the schedule log without
// reaching the recorded end state.
var ErrLogExhausted = errors.New("sched: schedule log exhausted before targets met")

// Uni timeslices all live threads of a machine on a single simulated CPU.
//
// In logging mode (Follow == nil) it round-robins runnable threads with a
// fixed quantum and appends every timeslice to Log — this is the entire
// shared-memory ordering record DoublePlay needs, the paper's key saving.
// In replay mode (Follow != nil) it reproduces a logged schedule exactly.
//
// Targets, when set, give each thread's retired-instruction count at the
// epoch boundary; threads stop there and the run ends when all reach them.
//
// A run is resumable: Advance retires a bounded number of instructions and
// pauses, and Run is Advance without a bound. Recording, batch replay and
// the debugger's single-stepping are therefore the same loop, not copies
// of it. Configure the exported fields before the first Advance.
type Uni struct {
	M       *vm.Machine
	Quantum int64

	// Targets[tid] is the epoch-end retired count; nil means run to
	// completion.
	Targets []uint64

	// Follow, when non-nil, is a recorded schedule to reproduce.
	Follow []dplog.Slice

	// TotalBudget, when positive, ends a free run once the machine as a
	// whole has retired this many further instructions; used by forward
	// recovery to re-execute roughly one epoch's worth of work.
	TotalBudget uint64

	// Signals, when set, produces the asynchronous signals the run
	// delivers: a followed epoch's recorded ones or a live world's.
	Signals Signals

	// LogSchedule enables appending timeslices to Log.
	LogSchedule bool
	Log         []dplog.Slice

	// Trace, when set, receives one span per executed timeslice (named
	// TraceSpan, default "slice"), stamped with this scheduler's local
	// Cycles clock and homed on tid 0 of TracePid. Callers that know
	// the run's global position splice a buffer instead (see
	// trace.Sink.Splice). Tracing never alters Cycles.
	Trace     *trace.Sink
	TracePid  int64
	TraceSpan string

	// Cycles is the simulated time consumed on this CPU, including
	// context-switch and schedule-logging charges.
	Cycles int64

	// Switches counts context switches (slices executed).
	Switches int64

	// LoopRetired counts the instructions retired inside vm.RunSlice rather
	// than by individual Steps; Retired() includes them. It is zero whenever
	// a hook that observes plain instructions is armed.
	LoopRetired uint64

	// plainCeil is the costliest plain instruction under M's cost model,
	// which bounds a slice loop that must stop before a signal's clock.
	plainCeil int64

	// Loop cursors. They live here rather than in Run's locals so that
	// Advance can pause between any two retirements and resume exactly
	// where it stopped.
	started      bool
	startRetired uint64 // machine-wide retired count at the first Advance
	sliceStart   int64  // Cycles when the current slice began

	// Follow mode: position in Follow and retirements within that slice.
	si        int
	sliceDone uint64

	// Free mode: round-robin position, the thread whose slice is open
	// (nil between slices) and retirements within that slice.
	cursor       int
	cur          *vm.Thread
	sliceRetired int64
}

// NewUni builds a uniprocessor scheduler over m.
func NewUni(m *vm.Machine) *Uni {
	return &Uni{M: m, Quantum: DefaultQuantum}
}

// sliceSpan returns the trace span name for one timeslice.
func (u *Uni) sliceSpan() string {
	if u.TraceSpan != "" {
		return u.TraceSpan
	}
	return "slice"
}

// belowTarget reports whether t still has instructions to retire this run.
func (u *Uni) belowTarget(t *vm.Thread) bool {
	if !t.Status.Live() {
		return false
	}
	if u.Targets == nil {
		return true
	}
	if t.ID >= len(u.Targets) {
		// A thread the recording never saw: the execution has diverged.
		return false
	}
	return t.Retired < u.Targets[t.ID]
}

// targetsMet reports whether the run is complete.
func (u *Uni) targetsMet() (bool, error) {
	if u.Targets == nil {
		return u.M.Done(), nil
	}
	for _, t := range u.M.Threads {
		if t.ID >= len(u.Targets) {
			return false, fmt.Errorf("%w: thread %d not present in recording", ErrDiverged, t.ID)
		}
		want := u.Targets[t.ID]
		switch {
		case t.Retired == want:
		case t.Retired < want:
			if !t.Status.Live() {
				return false, fmt.Errorf("%w: thread %d died at %d retired, target %d",
					ErrDiverged, t.ID, t.Retired, want)
			}
			return false, nil
		default:
			return false, fmt.Errorf("%w: thread %d overshot target %d (retired %d)",
				ErrDiverged, t.ID, want, t.Retired)
		}
	}
	return true, nil
}

// Run executes until targets are met (or the machine terminates, when
// Targets is nil).
func (u *Uni) Run() error {
	_, err := u.Advance(math.MaxUint64)
	return err
}

// Advance retires at most n more instructions and pauses, leaving the
// machine between two instructions in a fully inspectable state; done
// reports that the run is complete (it is detected inside the call that
// retires the final instruction). A later call resumes exactly where this
// one stopped, so any sequence of Advance calls makes the scheduling
// decisions, and charges the cycles, of one uninterrupted Run. (Blocked
// syscalls that complete while the CPU idles — live-OS runs only — retire
// outside the count.)
func (u *Uni) Advance(n uint64) (done bool, err error) {
	if !u.started {
		u.started = true
		u.startRetired = u.totalRetired()
		_, u.plainCeil = u.M.PlainCosts()
	}
	if u.Follow != nil {
		return u.advanceFollow(n)
	}
	return u.advanceFree(n)
}

// Retired returns the instructions retired since the first Advance.
func (u *Uni) Retired() uint64 {
	if !u.started {
		return 0
	}
	return u.totalRetired() - u.startRetired
}

// Next reports which thread the next retirement is scheduled on, when
// known. It consumes nothing: in free mode it peeks the round-robin pick.
func (u *Uni) Next() (tid int, ok bool) {
	if u.Follow != nil {
		if u.si >= len(u.Follow) {
			return 0, false
		}
		return u.Follow[u.si].Tid, true
	}
	t := u.cur
	if t == nil || u.sliceRetired >= u.Quantum || !u.canRun(t) {
		_, t = u.scan()
	}
	if t == nil {
		return 0, false
	}
	return t.ID, true
}

// totalRetired sums retired instructions across all threads.
func (u *Uni) totalRetired() uint64 {
	var n uint64
	for _, t := range u.M.Threads {
		n += t.Retired
	}
	return n
}

// advanceFree is logging mode: round-robin with quantum, appending slices.
func (u *Uni) advanceFree(n uint64) (bool, error) {
	for {
		if u.cur == nil {
			if u.TotalBudget > 0 && u.totalRetired()-u.startRetired >= u.TotalBudget {
				return true, nil
			}
			done, err := u.targetsMet()
			if err != nil || done {
				return done, err
			}
			if n == 0 {
				return false, nil
			}
			t := u.pickNext()
			if t == nil {
				if u.pollBlockedSys() {
					continue
				}
				return false, fmt.Errorf("%w\n%s", u.stuckErr(), u.M.DescribeState())
			}
			u.cur = t
			u.sliceRetired = 0
			u.Switches++
			u.Cycles += u.M.Cost.TimesliceSwitch
			u.sliceStart = u.Cycles
		}
		retired, paused, err := u.runSlice(u.cur, n)
		n -= uint64(retired - u.sliceRetired)
		u.sliceRetired = retired
		if err != nil || paused {
			return false, err
		}
		if retired > 0 {
			if u.Trace.Enabled() {
				u.Trace.Span(u.sliceSpan(), u.sliceStart, u.Cycles-u.sliceStart, u.TracePid, 0,
					[]trace.Arg{trace.Int("tid", u.cur.ID), trace.Uint("retired", uint64(retired))})
			}
			u.appendSlice(u.cur.ID, uint64(retired))
		}
		u.cur = nil
	}
}

// stuckErr classifies a no-runnable-thread state: under enforcement or
// targets it is a divergence; otherwise a guest deadlock.
func (u *Uni) stuckErr() error {
	if u.Targets != nil || u.M.Hooks.MayAcquire != nil {
		return fmt.Errorf("%w: no runnable thread before targets met", ErrDiverged)
	}
	return ErrDeadlock
}

// scan finds the next runnable thread below target in round-robin order
// and its distance from the cursor, without moving the cursor.
func (u *Uni) scan() (int, *vm.Thread) {
	threads := u.M.Threads
	n := len(threads)
	for k := 0; k < n; k++ {
		t := threads[(u.cursor+k)%n]
		if t.Status == vm.Runnable && u.belowTarget(t) {
			return k, t
		}
	}
	return 0, nil
}

// pickNext takes scan's pick and moves the cursor past it.
func (u *Uni) pickNext() *vm.Thread {
	k, t := u.scan()
	if t != nil {
		u.cursor = (u.cursor + k + 1) % len(u.M.Threads)
	}
	return t
}

// pollBlockedSys advances time and re-attempts syscall-blocked threads; it
// returns true if any thread became runnable or retired. This path is used
// by the uniprocessor baseline, where the real simulated OS can block; in
// epoch-parallel and replay modes injected syscalls never block.
func (u *Uni) pollBlockedSys() bool {
	any := false
	for _, t := range u.M.Threads {
		if t.Status == vm.BlockedSys && u.belowTarget(t) {
			any = true
		}
	}
	if !any {
		return false
	}
	u.Cycles += sysPollInterval
	u.M.Now = u.Cycles
	for _, t := range u.M.Threads {
		if t.Status != vm.BlockedSys || !u.belowTarget(t) {
			continue
		}
		// A thread that retires here is logged as a one-instruction slice
		// and, once runnable, scheduled by the round-robin loop.
		res, delivered := u.deliverDue(t)
		if !delivered {
			res = u.M.Step(t)
		}
		if res.Retired {
			u.Cycles += res.Cost
			u.appendSlice(t.ID, 1)
		}
	}
	// Even with no retirement, time moved forward; the caller loops and the
	// livelock guard is the simulated clock itself (world events are finite).
	return true
}

// runLoop retires up to lim plain instructions of t in vm.RunSlice and
// charges their cycles. The caller has established that no armed hook
// observes plain instructions, and has folded t's next signal into lim
// (loopBound); whatever the loop leaves — it stops before anything but a
// plain, non-faulting instruction — is for the caller's next attempt. M.Now
// is not maintained across the loop (nothing inside it reads the clock);
// every attempt is still preceded by M.Now = Cycles.
func (u *Uni) runLoop(t *vm.Thread, lim uint64) uint64 {
	k, cycles := u.M.RunSlice(t, lim)
	u.Cycles += cycles
	u.LoopRetired += k
	return k
}

// canRun reports whether t can retire further inside its open slice.
func (u *Uni) canRun(t *vm.Thread) bool {
	return !t.Status.Blocked() && u.belowTarget(t)
}

// runSlice continues t's open slice until the quantum, n further
// retirements, a block, its target, or machine/thread termination. It
// returns the slice's retirement count so far, and paused when only the n
// bound stopped a slice that can still continue.
func (u *Uni) runSlice(t *vm.Thread, n uint64) (retired int64, paused bool, err error) {
	retired = u.sliceRetired
	stop := u.Quantum
	if n < uint64(stop-retired) {
		stop = retired + int64(n)
	}
	loop := !u.M.Hooks.ObservesPlain()
	for retired < stop {
		if !u.canRun(t) {
			return retired, false, nil
		}
		if loop {
			// Quantum and pause bounds are already one number; the
			// thread's target, which canRun just found ahead, is the
			// third, and its next signal the fourth.
			lim := uint64(stop - retired)
			if u.Targets != nil && u.Targets[t.ID]-t.Retired < lim {
				lim = u.Targets[t.ID] - t.Retired
			}
			k := u.runLoop(t, u.loopBound(t, lim))
			retired += int64(k)
			if k == lim {
				continue
			}
		}
		u.M.Now = u.Cycles
		res, delivered := u.deliverDue(t)
		if !delivered {
			res = u.M.Step(t)
		}
		if u.M.Diverged != "" {
			return retired, false, fmt.Errorf("%w: %s", ErrDiverged, u.M.Diverged)
		}
		if !res.Retired {
			return retired, false, nil
		}
		u.Cycles += res.Cost
		retired++
	}
	// A guest fault ends the thread like an exit; whether that is a guest
	// bug (native/baseline runs) or a divergence (target runs, where the
	// dead thread stops short of its target) is the caller's judgement.
	return retired, stop < u.Quantum && u.canRun(t), nil
}

// appendSlice records a timeslice, merging with the previous entry when the
// same thread continues (quantum expiry without an intervening switch).
func (u *Uni) appendSlice(tid int, n uint64) {
	if !u.LogSchedule {
		return
	}
	if k := len(u.Log); k > 0 && u.Log[k-1].Tid == tid {
		u.Log[k-1].N += n
		return
	}
	u.Log = append(u.Log, dplog.Slice{Tid: tid, N: n})
	u.Cycles += u.M.Cost.SchedLogEvent
}

// advanceFollow is replay mode: reproduce the logged schedule exactly.
func (u *Uni) advanceFollow(n uint64) (bool, error) {
	for ; u.si < len(u.Follow); u.si++ {
		i, s := u.si, u.Follow[u.si]
		if s.Tid < 0 || s.Tid >= len(u.M.Threads) {
			return false, fmt.Errorf("%w: slice %d names unknown thread %d", ErrDiverged, i, s.Tid)
		}
		t := u.M.Threads[s.Tid]
		retired := u.sliceDone
		if retired == 0 {
			u.sliceStart = u.Cycles
		}
		stop := s.N
		if n < stop-retired {
			stop = retired + n
		}
		loop := !u.M.Hooks.ObservesPlain()
		for retired < stop {
			if !t.Status.Live() {
				return false, fmt.Errorf("%w: slice %d: thread %d dead after %d/%d",
					ErrDiverged, i, s.Tid, retired, s.N)
			}
			if t.Status.Blocked() {
				return false, fmt.Errorf("%w: slice %d: thread %d blocked (%s) after %d/%d",
					ErrDiverged, i, s.Tid, t.Status, retired, s.N)
			}
			if loop {
				k := u.runLoop(t, u.loopBound(t, stop-retired))
				retired += k
				if retired == stop {
					break
				}
			}
			before := t.Retired
			u.M.Now = u.Cycles
			res, delivered := u.deliverDue(t)
			if !delivered {
				res = u.M.Step(t)
			}
			if u.M.Diverged != "" {
				return false, fmt.Errorf("%w: %s", ErrDiverged, u.M.Diverged)
			}
			if !res.Retired {
				continue // re-attempt resolved by barrier/lock side effects
			}
			u.Cycles += res.Cost
			retired += t.Retired - before
		}
		n -= retired - u.sliceDone
		u.sliceDone = retired
		if retired < s.N {
			return false, nil // paused inside the slice
		}
		if retired != s.N {
			return false, fmt.Errorf("%w: slice %d: thread %d retired %d, slice says %d",
				ErrDiverged, i, s.Tid, retired, s.N)
		}
		if u.Trace.Enabled() {
			u.Trace.Span(u.sliceSpan(), u.sliceStart, u.Cycles-u.sliceStart, u.TracePid, 0,
				[]trace.Arg{trace.Int("tid", s.Tid), trace.Uint("retired", retired)})
		}
		u.Switches++
		u.Cycles += u.M.Cost.TimesliceSwitch
		u.sliceDone = 0
	}
	done, err := u.targetsMet()
	if err != nil {
		return false, err
	}
	if !done {
		return false, ErrLogExhausted
	}
	return true, nil
}
