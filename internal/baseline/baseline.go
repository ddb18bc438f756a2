// Package baseline implements the comparison systems the evaluation needs:
//
//   - A CREW page-ownership recorder in the style of SMP-ReVirt: the
//     thread-parallel execution runs unmodified, but every transition of a
//     page between owners/modes must be logged (and, on real hardware, paid
//     for with a page fault). Its log grows with cross-thread sharing.
//   - A pure uniprocessor recorder: the whole program timesliced on one
//     CPU for its entire run — minimal log, but no parallel speedup at all.
//
// DoublePlay sits between them: uniprocessor-quality logs at (almost)
// multiprocessor speed.
package baseline

import (
	"fmt"

	"doubleplay/internal/dplog"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// CrewFaultCost is the simulated cost of one CREW ownership fault (a
// hardware page-protection fault plus kernel bookkeeping).
const CrewFaultCost = 2500

// crewMode is a page's sharing mode.
type crewMode uint8

const (
	crewExclusive crewMode = iota
	crewShared
)

type crewPage struct {
	mode    crewMode
	owner   int
	readers uint64 // bitset over tids < 64
}

// CrewResult reports a CREW-logged execution.
type CrewResult struct {
	Cycles      int64 // execution time including fault penalties
	BaseCycles  int64 // execution time without penalties
	Transitions int64 // logged ownership transitions
	Retired     int64
	OrderBytes  int // encoded size of the ownership-transition log
	InputBytes  int // encoded size of the syscall/input log (needed for replay)
	LogBytes    int // total replay log: order + input
	Faults      []string
}

// RunCREW executes prog thread-parallel on cpus cores while logging every
// CREW page-ownership transition, returning the overhead and log size a
// shared-memory-order recorder would pay for this execution.
//
// tr, when enabled, receives the baseline timeline: one "baseline.crew.run"
// span per thread-CPU binding, a "crew.fault" instant and a
// "crew.transitions" counter sample per logged ownership transition, and a
// closing "baseline.crew.done" instant. Tracing only reads the simulated
// clocks; traced and untraced runs produce bit-identical results.
func RunCREW(prog *vm.Program, world *simos.World, cpus int, seed int64, costs *vm.CostModel, tr trace.Recorder) (*CrewResult, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	traced := trace.Enabled(tr)
	var pid int64
	if traced {
		pid = tr.AllocPid(fmt.Sprintf("baseline crew %s cpus=%d", prog.Name, cpus))
	}
	// Like any replay system, CREW must also log external inputs.
	ros := &uniRecordOS{inner: simos.NewOS(world)}
	m := vm.NewMachine(prog, ros, costs)

	pages := make(map[vm.Word]*crewPage)
	var transitions int64
	var logBytes int64
	logTransition := func(page vm.Word, tid int, write bool) {
		transitions++
		// Honest size estimate: varint page delta (~3B), tid (1B), mode+seq
		// delta (~2B).
		logBytes += 6
		if traced {
			tr.Instant("crew.fault", m.Now, pid, int64(tid),
				map[string]any{"page": int64(page), "write": write})
			tr.Counter("crew.transitions", m.Now, pid, transitions)
		}
	}

	access := func(tid int, addr vm.Word, write bool) {
		const pageShift = 10
		pg := addr >> pageShift
		p := pages[pg]
		if p == nil {
			p = &crewPage{mode: crewExclusive, owner: tid}
			pages[pg] = p
			return // first touch: assigned silently, as a fresh mapping
		}
		bit := uint64(1) << (uint(tid) & 63)
		if write {
			if p.mode == crewExclusive && p.owner == tid {
				return
			}
			logTransition(pg, tid, true)
			p.mode = crewExclusive
			p.owner = tid
			p.readers = 0
			return
		}
		switch p.mode {
		case crewExclusive:
			if p.owner == tid {
				return
			}
			logTransition(pg, tid, false)
			p.mode = crewShared
			p.readers = (uint64(1) << (uint(p.owner) & 63)) | bit
		case crewShared:
			if p.readers&bit != 0 {
				return
			}
			logTransition(pg, tid, false)
			p.readers |= bit
		}
	}

	m.Hooks.OnMemAccess = access
	m.Hooks.OnSync = func(ev vm.SyncEvent) {
		if ev.Obj.Kind == vm.ObjAtomic {
			access(ev.Tid, ev.Obj.ID, true)
		}
	}

	par := sched.NewParallel(m, cpus, seed)
	if traced {
		par.Trace = tr
		par.TracePid = pid
		par.TraceSpan = "baseline.crew.run"
	}
	if err := par.Run(); err != nil {
		return nil, err
	}
	if traced {
		for _, t := range m.Threads {
			tr.NameThread(pid, int64(t.ID), fmt.Sprintf("thread %d", t.ID))
		}
		tr.Instant("baseline.crew.done", par.WallTime(), pid, 0,
			map[string]any{"transitions": transitions, "retired": par.Retired()})
	}
	inputBytes := (&dplog.Recording{Epochs: []*dplog.EpochLog{{Syscalls: ros.log}}}).ReplaySize()
	return &CrewResult{
		Cycles:      par.WallTime() + transitions*CrewFaultCost/int64(cpus),
		BaseCycles:  par.WallTime(),
		Transitions: transitions,
		Retired:     par.Retired(),
		OrderBytes:  int(logBytes),
		InputBytes:  inputBytes,
		LogBytes:    int(logBytes) + inputBytes,
		Faults:      m.Faults(),
	}, nil
}

// UniResult reports a pure uniprocessor record/replay execution.
type UniResult struct {
	Cycles    int64
	Retired   int64
	Slices    int
	Syscalls  int
	LogBytes  int // replay log: schedule + syscalls
	FinalHash uint64
	Faults    []string
}

// uniRecordOS logs syscalls for the uniprocessor baseline.
type uniRecordOS struct {
	inner vm.SyscallHandler
	log   []dplog.SyscallRecord
}

func (r *uniRecordOS) Syscall(m *vm.Machine, t *vm.Thread, num vm.Word, args [6]vm.Word) vm.SysResult {
	res := r.inner.Syscall(m, t, num, args)
	if !res.Block && res.Fault == "" {
		r.log = append(r.log, dplog.SyscallRecord{Tid: t.ID, Num: num, Args: args, Ret: res.Ret, Writes: res.Writes})
	}
	return res
}

// RunUniprocessor records prog with classic single-CPU timeslicing for the
// whole execution — the paper's "what everyone did before multiprocessors"
// baseline. Its log is one giant epoch.
//
// tr, when enabled, receives one "baseline.uni.slice" span per executed
// timeslice on a single "cpu0" track plus a closing "baseline.uni.done"
// instant. Tracing only reads the scheduler clock; traced and untraced runs
// produce bit-identical results.
func RunUniprocessor(prog *vm.Program, world *simos.World, costs *vm.CostModel, tr trace.Recorder) (*UniResult, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	traced := trace.Enabled(tr)
	var pid int64
	if traced {
		pid = tr.AllocPid("baseline uni " + prog.Name)
		tr.NameThread(pid, 0, "cpu0")
	}
	ros := &uniRecordOS{inner: simos.NewOS(world)}
	m := vm.NewMachine(prog, ros, costs)
	var sigs []dplog.SignalRecord
	if world.SignalCount() > 0 {
		m.Hooks.PendingSignal = func(t *vm.Thread) (vm.Word, bool) {
			sig, ok := world.NextSignal(t.ID, m.Now)
			if ok {
				sigs = append(sigs, dplog.SignalRecord{Tid: t.ID, Retired: t.Retired, Sig: sig})
			}
			return sig, ok
		}
	}
	uni := sched.NewUni(m)
	uni.LogSchedule = true
	if traced {
		uni.Trace = tr
		uni.TracePid = pid
		uni.TraceSpan = "baseline.uni.slice"
	}
	if err := uni.Run(); err != nil {
		return nil, err
	}
	if traced {
		tr.Instant("baseline.uni.done", uni.Cycles, pid, 0,
			map[string]any{"slices": len(uni.Log), "syscalls": len(ros.log)})
	}

	var total uint64
	for _, t := range m.Threads {
		total += t.Retired
	}
	targets := make([]uint64, len(m.Threads))
	for i, t := range m.Threads {
		targets[i] = t.Retired
	}
	rec := &dplog.Recording{
		Program: prog.Name,
		Epochs: []*dplog.EpochLog{{
			Targets:  targets,
			Schedule: uni.Log,
			Syscalls: ros.log,
			Signals:  sigs,
		}},
	}
	return &UniResult{
		Cycles:    uni.Cycles,
		Retired:   int64(total),
		Slices:    len(uni.Log),
		Syscalls:  len(ros.log),
		LogBytes:  rec.ReplaySize(),
		FinalHash: m.StateHash(),
		Faults:    m.Faults(),
	}, nil
}
