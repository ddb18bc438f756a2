package epoch

import (
	"math"

	"doubleplay/internal/dplog"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// LiveLog is the logging role of a machine: it runs the guest against a
// live simulated world and appends what that world decided — every
// retired syscall's result, the order of gated sync operations, and the
// retired-instruction position of every signal delivery — to the current
// epoch's log. Every later execution of the epoch (see Exec) consumes
// exactly these three streams. The thread-parallel recorder, forward
// recovery's resumes and re-runs, and both baselines log through this type.
//
// With an enabled recorder each append is also narrated as a "syscall",
// "sync" or "signal" instant at the machine's clock, on pid with the
// guest thread as tid.
type LiveLog struct {
	m   *vm.Machine
	os  *simos.OS
	tr  *trace.Sink
	pid int64
	ep  dplog.EpochLog // the current epoch's scratch: Syscalls, SyncOrder, Signals
}

// NewLiveLog returns a log that narrates its appends to tr (nil or
// disabled: silently) on process pid.
func NewLiveLog(tr *trace.Sink, pid int64) *LiveLog {
	return &LiveLog{tr: tr, pid: pid}
}

// Attach makes m a logging machine over w: the log becomes m's syscall
// handler in front of a simulated OS on w and its OnSync hook. The
// scheduler that runs m delivers w's signals through Signals. Attaching
// again, to a restored machine and a cloned world, is how forward recovery
// hands the log over.
func (l *LiveLog) Attach(m *vm.Machine, w *simos.World) {
	l.m, l.os = m, simos.NewOS(w)
	m.OS = l
	m.Hooks.OnSync = l.onSync
}

// Signals returns the log as the producer of the attached world's
// signals, for the scheduler that runs the machine, or nil when the world
// scripts none. The script is fixed before the run and shared by every
// clone of a world, so the answer holds across a hand-over.
func (l *LiveLog) Signals() sched.Signals {
	if l.os.W.SignalCount() == 0 {
		return nil
	}
	return l
}

// World returns the live world of the last Attach.
func (l *LiveLog) World() *simos.World { return l.os.W }

// Take hands over what has been logged since the last Take — one epoch's
// three streams, at a boundary, in an epoch log the caller completes —
// and starts the next epoch's empty. Each stream is copied out of the
// log's scratch at its exact length (nil when empty), and the scratch is
// kept for the next epoch.
func (l *LiveLog) Take() *dplog.EpochLog {
	ep := &dplog.EpochLog{
		Syscalls: exact(l.ep.Syscalls), SyncOrder: exact(l.ep.SyncOrder), Signals: exact(l.ep.Signals),
	}
	l.ep.Syscalls, l.ep.SyncOrder, l.ep.Signals = l.ep.Syscalls[:0], l.ep.SyncOrder[:0], l.ep.Signals[:0]
	return ep
}

// Syscall implements vm.SyscallHandler: the live OS services the call and
// a retired one is appended with its result.
func (l *LiveLog) Syscall(m *vm.Machine, t *vm.Thread, num vm.Word, args [6]vm.Word) vm.SysResult {
	res := l.os.Syscall(m, t, num, args)
	if !res.Block {
		l.ep.Syscalls = append(l.ep.Syscalls, dplog.SyscallRecord{
			Tid: t.ID, Num: num, Args: args, Ret: res.Ret, Writes: res.Writes,
		})
		if l.tr.Enabled() {
			l.tr.Instant("syscall", m.Now, l.pid, int64(t.ID), []trace.Arg{trace.Int("num", num)})
		}
	}
	return res
}

func (l *LiveLog) onSync(ev vm.SyncEvent) {
	if !ev.Gated() {
		return
	}
	l.ep.SyncOrder = append(l.ep.SyncOrder, dplog.SyncRecord{Tid: ev.Tid, Kind: ev.Obj.Kind, ID: ev.Obj.ID})
	if l.tr.Enabled() {
		l.tr.Instant("sync", l.m.Now, l.pid, int64(ev.Tid),
			[]trace.Arg{trace.String("kind", ev.Obj.Kind.String()), trace.Int("id", ev.Obj.ID)})
	}
}

// Next implements sched.Signals: tid's next scripted signal falls due
// once the clock reaches its time.
func (l *LiveLog) Next(tid int) (vm.Word, uint64, int64) {
	sig, at, ok := l.os.W.Signal(tid)
	if !ok {
		at = math.MaxInt64
	}
	return sig, math.MaxUint64, at
}

// Took implements sched.Signals: the world's signal is consumed and
// logged with the exact retired-instruction position it interrupted.
func (l *LiveLog) Took(tid int, retired uint64) {
	sig := l.os.W.TakeSignal(tid)
	l.ep.Signals = append(l.ep.Signals, dplog.SignalRecord{Tid: tid, Retired: retired, Sig: sig})
	if l.tr.Enabled() {
		l.tr.Instant("signal", l.m.Now, l.pid, int64(tid),
			[]trace.Arg{trace.Int("sig", sig), trace.Uint("retired", retired)})
	}
}

// RunUni runs uni's machine free on its one CPU against w and returns the
// log of that run as an epoch: the timeslice schedule it chose, the
// syscalls and signals it consumed, and the per-thread retired counts
// where it stopped. That is all of a uniprocessor recorder, and of forward
// recovery's re-execution, where uni.TotalBudget ends the run after about
// one epoch's worth of instructions; the caller sets quantum, budget and
// slice tracing on uni. One CPU needs no sync order — the schedule is the
// order — so none is logged. The epoch is returned even when the run
// fails, for callers that accept a machine that finished anyway.
func (l *LiveLog) RunUni(uni *sched.Uni, w *simos.World) (*dplog.EpochLog, error) {
	m := uni.M
	l.Attach(m, w)
	m.Hooks.OnSync = nil
	uni.LogSchedule, uni.Signals = true, l.Signals()
	err := uni.Run()
	ep := l.Take()
	ep.Schedule = uni.Log
	ep.Targets = make([]uint64, len(m.Threads))
	for i, t := range m.Threads {
		ep.Targets[i] = t.Retired
	}
	return ep, err
}
