// Package epoch implements DoublePlay's epoch machinery: boundary capture
// (checkpoint + world snapshot) and the two roles a machine can play in an
// epoch, each wired in one place — LiveLog, which runs a machine against a
// live world and logs syscall results, sync order and signal positions,
// and Exec, which feeds one epoch's log back into a machine on a single
// simulated CPU. Run, the recorder's epoch-parallel pass, is an Exec.
//
// The runner optionally narrates its timeslices into a trace.Sink
// (RunSpec.Trace) with epoch-local timestamps; the recorder splices that
// buffer to the epoch's pipeline-assigned position once known, so the
// Perfetto timeline shows epoch work where it actually ran.
package epoch

import (
	"fmt"

	"doubleplay/internal/dplog"
	"doubleplay/internal/vm"
)

// Gate enforces, per synchronisation object, the thread order in which
// gated operations (lock acquires, atomics, spawns) retired during the
// thread-parallel run. With the gate in place, lock-acquisition races
// resolve identically in the epoch-parallel execution, so only true data
// races can make the two executions diverge — the property DoublePlay's
// divergence rate depends on.
type Gate struct {
	queues map[vm.SyncObj][]int
	used   int
	err    string
}

// NewGate builds a gate from an epoch's recorded sync order.
func NewGate(order []dplog.SyncRecord) *Gate {
	g := &Gate{queues: make(map[vm.SyncObj][]int)}
	for _, r := range order {
		obj := vm.SyncObj{Kind: r.Kind, ID: r.ID}
		g.queues[obj] = append(g.queues[obj], r.Tid)
	}
	return g
}

// MayAcquire reports whether tid is next in the recorded order for obj.
// An operation with no recorded counterpart is refused forever; the runner
// detects the resulting stall as a divergence.
func (g *Gate) MayAcquire(obj vm.SyncObj, tid int) bool {
	q := g.queues[obj]
	return len(q) > 0 && q[0] == tid
}

// OnSync consumes the head of the object's queue when a gated operation
// retires. It must be installed as the machine's OnSync hook.
func (g *Gate) OnSync(ev vm.SyncEvent) {
	if !ev.Gated() {
		return
	}
	q := g.queues[ev.Obj]
	if len(q) == 0 || q[0] != ev.Tid {
		// MayAcquire prevents this unless enforcement is disabled (the
		// ablation configuration); record it so Remaining()/Err() report it.
		g.err = fmt.Sprintf("sync op %s by tid %d not next in recorded order", ev.Obj, ev.Tid)
		return
	}
	g.queues[ev.Obj] = q[1:]
	g.used++
}

// Remaining returns the number of recorded operations not yet performed.
func (g *Gate) Remaining() int { return queued(g.queues) }

// queued counts what is left in a set of per-thread or per-object queues.
func queued[K comparable, V any](queues map[K][]V) int {
	n := 0
	for _, q := range queues {
		n += len(q)
	}
	return n
}

// Used returns the number of enforced operations consumed.
func (g *Gate) Used() int { return g.used }

// Err returns a non-empty string if the observed order contradicted the
// recording (possible only when enforcement is disabled).
func (g *Gate) Err() string { return g.err }

// InjectOS replays recorded syscall results instead of executing a
// simulated OS. Any identity mismatch — wrong thread, number, or arguments
// — marks the machine diverged.
type InjectOS struct {
	queues   map[int][]dplog.SyscallRecord
	Injected int
}

// NewInjectOS builds an injector from an epoch's syscall records. Records
// arrive in global retirement order; per-thread order, which is what
// injection requires, is preserved by the per-tid split.
func NewInjectOS(records []dplog.SyscallRecord) *InjectOS {
	o := &InjectOS{queues: make(map[int][]dplog.SyscallRecord)}
	for _, r := range records {
		o.queues[r.Tid] = append(o.queues[r.Tid], r)
	}
	return o
}

// Syscall implements vm.SyscallHandler by injection.
func (o *InjectOS) Syscall(m *vm.Machine, t *vm.Thread, num vm.Word, args [6]vm.Word) vm.SysResult {
	q := o.queues[t.ID]
	if len(q) == 0 {
		m.Diverged = fmt.Sprintf("tid %d issued syscall %d with no recorded counterpart", t.ID, num)
		return vm.SysResult{Block: true}
	}
	rec := q[0]
	if !rec.Matches(t.ID, num, args) {
		m.Diverged = fmt.Sprintf("tid %d syscall mismatch: got num=%d args=%v, recorded num=%d args=%v",
			t.ID, num, args, rec.Num, rec.Args)
		return vm.SysResult{Block: true}
	}
	o.queues[t.ID] = q[1:]
	o.Injected++
	return vm.SysResult{Ret: rec.Ret, Writes: rec.Writes}
}

// Remaining returns the number of recorded syscalls not yet injected.
func (o *InjectOS) Remaining() int { return queued(o.queues) }

// InjectSignals re-delivers recorded asynchronous signals at the exact
// retired-instruction counts the recording pinned them to.
type InjectSignals struct {
	queues   map[int][]dplog.SignalRecord
	Injected int
}

// NewInjectSignals builds an injector from an epoch's signal records.
func NewInjectSignals(recs []dplog.SignalRecord) *InjectSignals {
	s := &InjectSignals{queues: make(map[int][]dplog.SignalRecord)}
	for _, r := range recs {
		s.queues[r.Tid] = append(s.queues[r.Tid], r)
	}
	return s
}

// Pending implements the machine's PendingSignal hook.
func (s *InjectSignals) Pending(t *vm.Thread) (vm.Word, bool) {
	q := s.queues[t.ID]
	if len(q) > 0 && q[0].Retired == t.Retired {
		s.queues[t.ID] = q[1:]
		s.Injected++
		return q[0].Sig, true
	}
	return 0, false
}

// Remaining returns the number of recorded signals not yet delivered.
func (s *InjectSignals) Remaining() int { return queued(s.queues) }
