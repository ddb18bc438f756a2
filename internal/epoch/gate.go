// Package epoch implements DoublePlay's epoch machinery: boundary capture
// (checkpoint + world snapshot) and the two roles a machine can play in an
// epoch, each wired in one place — LiveLog, which runs a machine against a
// live world and logs syscall results, sync order and signal positions,
// and Exec, which feeds one epoch's log back into a machine on a single
// simulated CPU. Slot.Run, the recorder's epoch-parallel pass, is an Exec
// on a machine the slot keeps from one epoch to the next.
//
// The runner optionally narrates its timeslices into a trace.Sink
// (RunSpec.Trace) with epoch-local timestamps; the recorder splices that
// buffer to the epoch's pipeline-assigned position once known, so the
// Perfetto timeline shows epoch work where it actually ran.
package epoch

import (
	"fmt"
	"math"
	"slices"

	"doubleplay/internal/dplog"
	"doubleplay/internal/vm"
)

// gate enforces, per synchronisation object, the thread order in which
// gated operations (lock acquires, atomics, spawns) retired during the
// thread-parallel run. With the gate in place, lock-acquisition races
// resolve identically in the epoch-parallel execution, so only true data
// races can make the two executions diverge — the property DoublePlay's
// divergence rate depends on.
//
// The gate reads the epoch's sync order in place, as the injectors'
// cursors read theirs: next links each record to the next one on the same
// object, and head names each object's next record to retire. Both are
// kept by a reused gate (a Slot's), which reset refills for every epoch.
type gate struct {
	order []dplog.SyncRecord
	next  []int              // next[i]-1 follows order[i] on its object; 0: none
	head  map[vm.SyncObj]int // head[obj]-1 is obj's next record; 0: none left
	used  int
	err   string
}

// reset points g at an epoch's recorded sync order, linking its records
// per object in one backward pass. The previous epoch's objects are
// deleted rather than the map cleared, so the work stays linear in the
// records however many objects an earlier epoch had.
func (g *gate) reset(order []dplog.SyncRecord) {
	if g.head == nil {
		g.head = make(map[vm.SyncObj]int)
	}
	for _, r := range g.order {
		delete(g.head, vm.SyncObj{Kind: r.Kind, ID: r.ID})
	}
	g.order, g.used, g.err = order, 0, ""
	g.next = slices.Grow(g.next[:0], len(order))[:len(order)]
	for i := len(order) - 1; i >= 0; i-- {
		obj := vm.SyncObj{Kind: order[i].Kind, ID: order[i].ID}
		g.next[i], g.head[obj] = g.head[obj], i+1
	}
}

// MayAcquire reports whether tid is next in the recorded order for obj.
// An operation with no recorded counterpart is refused forever; the runner
// detects the resulting stall as a divergence.
func (g *gate) MayAcquire(obj vm.SyncObj, tid int) bool {
	h := g.head[obj]
	return h > 0 && g.order[h-1].Tid == tid
}

// OnSync consumes the head of the object's queue when a gated operation
// retires. It must be installed as the machine's OnSync hook.
func (g *gate) OnSync(ev vm.SyncEvent) {
	if !ev.Gated() {
		return
	}
	h := g.head[ev.Obj]
	if h == 0 || g.order[h-1].Tid != ev.Tid {
		// MayAcquire prevents this unless enforcement is disabled (the
		// ablation configuration); record it so Remaining()/Err() report it.
		g.err = fmt.Sprintf("sync op %s by tid %d not next in recorded order", ev.Obj, ev.Tid)
		return
	}
	g.head[ev.Obj] = g.next[h-1]
	g.used++
}

// Remaining returns the number of recorded operations not yet performed.
func (g *gate) Remaining() int { return len(g.order) - g.used }

// Used returns the number of enforced operations consumed.
func (g *gate) Used() int { return g.used }

// Err returns a non-empty string if the observed order contradicted the
// recording (possible only when enforcement is disabled).
func (g *gate) Err() string { return g.err }

// cursors walk one epoch's records, which are in global retirement
// order, thread by thread without copying them. Each thread's cursor is
// the index of its next record, found by scanning forward from the record
// it last consumed (from the start, the first time the thread asks), so
// the head a per-instruction hook asks for is one index away. Only
// threads that ask get a cursor: a record naming a thread that never runs
// is never consumed, and counts as left over.
type cursors[R any] struct {
	recs []R
	tid  func(*R) int
	next []int // next[tid]-1 is tid's cursor; 0 until tid first asks
}

// head returns tid's next record, or nil when it has none left.
func (c *cursors[R]) head(tid int) *R {
	for tid >= len(c.next) {
		c.next = append(c.next, 0)
	}
	if c.next[tid] == 0 {
		c.next[tid] = c.scan(tid, 0) + 1
	}
	if i := c.next[tid] - 1; i < len(c.recs) {
		return &c.recs[i]
	}
	return nil
}

// pop consumes tid's head, which head has just returned.
func (c *cursors[R]) pop(tid int) { c.next[tid] = c.scan(tid, c.next[tid]) + 1 }

// scan returns the index of tid's first record at or after i, or len(recs).
func (c *cursors[R]) scan(tid, i int) int {
	for i < len(c.recs) && c.tid(&c.recs[i]) != tid {
		i++
	}
	return i
}

// injectOS replays recorded syscall results instead of executing a
// simulated OS. Any identity mismatch — wrong thread, number, or arguments
// — marks the machine diverged.
type injectOS struct {
	cur      cursors[dplog.SyscallRecord]
	Injected int
}

// newInjectOS builds an injector over an epoch's syscall records, which
// it reads in place: they arrive in global retirement order, and each
// thread's cursor keeps the per-thread order injection requires.
func newInjectOS(records []dplog.SyscallRecord) *injectOS {
	tid := func(r *dplog.SyscallRecord) int { return r.Tid }
	return &injectOS{cur: cursors[dplog.SyscallRecord]{recs: records, tid: tid}}
}

// Syscall implements vm.SyscallHandler by injection.
func (o *injectOS) Syscall(m *vm.Machine, t *vm.Thread, num vm.Word, args [6]vm.Word) vm.SysResult {
	rec := o.cur.head(t.ID)
	if rec == nil {
		m.Diverged = fmt.Sprintf("tid %d issued syscall %d with no recorded counterpart", t.ID, num)
		return vm.SysResult{Block: true}
	}
	if !rec.Matches(t.ID, num, args) {
		m.Diverged = fmt.Sprintf("tid %d syscall mismatch: got num=%d args=%v, recorded num=%d args=%v",
			t.ID, num, args, rec.Num, rec.Args)
		return vm.SysResult{Block: true}
	}
	o.cur.pop(t.ID)
	o.Injected++
	return vm.SysResult{Ret: rec.Ret, Writes: rec.Writes}
}

// Remaining returns the number of recorded syscalls not yet injected.
func (o *injectOS) Remaining() int { return len(o.cur.recs) - o.Injected }

// injectSignals re-delivers recorded asynchronous signals at the exact
// retired-instruction counts the recording pinned them to.
type injectSignals struct {
	cur      cursors[dplog.SignalRecord]
	Injected int
}

// newInjectSignals builds an injector over an epoch's signal records,
// read in place like newInjectOS's.
func newInjectSignals(recs []dplog.SignalRecord) *injectSignals {
	tid := func(r *dplog.SignalRecord) int { return r.Tid }
	return &injectSignals{cur: cursors[dplog.SignalRecord]{recs: recs, tid: tid}}
}

// Next implements sched.Signals: tid's next recorded signal falls due at
// the retired count it was delivered at.
func (s *injectSignals) Next(tid int) (vm.Word, uint64, int64) {
	r := s.cur.head(tid)
	if r == nil {
		return 0, math.MaxUint64, math.MaxInt64
	}
	return r.Sig, r.Retired, math.MaxInt64
}

// Took implements sched.Signals.
func (s *injectSignals) Took(tid int, _ uint64) {
	s.cur.pop(tid)
	s.Injected++
}

// Remaining returns the number of recorded signals not yet delivered.
func (s *injectSignals) Remaining() int { return len(s.cur.recs) - s.Injected }
