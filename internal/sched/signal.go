package sched

import (
	"math"

	"doubleplay/internal/vm"
)

// Signals produces the asynchronous signals a scheduler delivers. A
// thread's next signal falls due at a point of its run, named in one of
// two units: a replay pins it to the retired count the recording
// delivered it at, a live world to the clock it becomes deliverable at.
// A producer leaves the unit it does not use at never (the maximum), so
// the signal is due before the thread's next instruction once the thread
// has retired count instructions or that instruction starts at or after
// at, whichever comes first.
type Signals interface {
	// Next returns tid's next undelivered signal and when it falls due;
	// both points are never when tid has none left.
	Next(tid int) (sig vm.Word, count uint64, at int64)
	// Took consumes tid's next signal, delivered with retired
	// instructions behind the thread.
	Took(tid int, retired uint64)
}

// deliverDue is the one place a scheduler delivers a signal: t takes its
// next one if it is due at the clock m.Now, and ok reports whether it was
// due. Deliver keeps Step's precedence, and a signal is consumed only if
// it was delivered, so a thread whose fetch faults keeps its signal.
func deliverDue(m *vm.Machine, sigs Signals, t *vm.Thread) (res vm.StepResult, ok bool) {
	sig, count, at := sigs.Next(t.ID)
	if t.Retired != count && m.Now < at {
		return res, false
	}
	retired, took := t.Retired, t.SigRetired
	res = m.Deliver(t, sig)
	if t.SigRetired != took {
		sigs.Took(t.ID, retired)
	}
	return res, true
}

// deliverDue is deliverDue with u's producer, if u has one: the caller
// attempts t's instruction only when nothing was delivered. It inlines, so
// a run without a producer pays a nil check per attempt, not a call.
func (u *Uni) deliverDue(t *vm.Thread) (res vm.StepResult, ok bool) {
	if u.Signals != nil {
		res, ok = deliverDue(u.M, u.Signals, t)
	}
	return res, ok
}

// loopBound lowers lim, the bound on the slice loop's next batch of t, to
// what t's next signal leaves room for (signalGap). It inlines like
// deliverDue, and so does runLoop, which takes what it returns.
func (u *Uni) loopBound(t *vm.Thread, lim uint64) uint64 {
	if u.Signals == nil {
		return lim
	}
	return min(lim, signalGap(u.Signals, t, u.Cycles, u.plainCeil))
}

// signalGap returns how many plain instructions t may retire in a batch
// starting at clock now before its next signal can fall due. For a clock
// that is at most ⌈(at−now)/ceil⌉, ceil being the costliest plain
// instruction: the k-th of the batch starts at most k·ceil cycles after
// now, which is before at for every k below that. A signal already due
// leaves no room, whatever plain instructions cost.
func signalGap(sigs Signals, t *vm.Thread, now, ceil int64) uint64 {
	_, count, at := sigs.Next(t.ID)
	gap := count - t.Retired // a count the thread is past never falls due
	switch {
	case at <= now:
		return 0
	case at == math.MaxInt64 || ceil <= 0: // no clock, or one plain instructions never move
		return gap
	}
	return min(gap, uint64(at-now-1)/uint64(ceil)+1)
}
