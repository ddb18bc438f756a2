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
	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// crewFaultCost is the simulated cost of one CREW ownership fault (a
// hardware page-protection fault plus kernel bookkeeping).
const crewFaultCost = 2500

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
func RunCREW(prog *vm.Program, world *simos.World, cpus int, seed int64, costs *vm.CostModel, tr *trace.Sink) (*CrewResult, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	traced := tr.Enabled()
	var pid int64
	if traced {
		pid = tr.AllocPid(fmt.Sprintf("baseline crew %s cpus=%d", prog.Name, cpus))
	}
	// Like any replay system, CREW must also log external inputs. Its own
	// OnSync hook below replaces the log's: page ownership, not sync
	// order, is what CREW records.
	live := epoch.NewLiveLog(nil, 0)
	m := vm.NewMachine(prog, nil, costs)
	live.Attach(m, world)

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
				[]trace.Arg{trace.Int("page", int64(page)), trace.Bool("write", write)})
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
	par.Trace, par.TracePid, par.TraceSpan = tr, pid, "baseline.crew.run"
	par.Signals = live.Signals()
	if err := par.Run(); err != nil {
		return nil, err
	}
	if traced {
		for _, t := range m.Threads {
			tr.NameThread(pid, int64(t.ID), fmt.Sprintf("thread %d", t.ID))
		}
		tr.Instant("baseline.crew.done", par.WallTime(), pid, 0,
			[]trace.Arg{trace.Int("transitions", transitions), trace.Int("retired", par.Retired())})
	}
	inputBytes := (&dplog.Recording{Epochs: []*dplog.EpochLog{live.Take()}}).ReplaySize()
	return &CrewResult{
		Cycles:      par.WallTime() + transitions*crewFaultCost/int64(cpus),
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

	// Recording is the log itself — one epoch from program reset to
	// FinalHash — which replay.Run reproduces like any other.
	Recording *dplog.Recording
}

// RunUniprocessor records prog with classic single-CPU timeslicing for the
// whole execution — the paper's "what everyone did before multiprocessors"
// baseline. Its log is one giant epoch, produced by the same
// epoch.LiveLog.RunUni forward recovery re-runs one epoch with.
//
// tr, when enabled, receives one "baseline.uni.slice" span per executed
// timeslice on a single "cpu0" track plus a closing "baseline.uni.done"
// instant. Tracing only reads the scheduler clock; traced and untraced runs
// produce bit-identical results.
func RunUniprocessor(prog *vm.Program, world *simos.World, costs *vm.CostModel, tr *trace.Sink) (*UniResult, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	traced := tr.Enabled()
	var pid int64
	if traced {
		pid = tr.AllocPid("baseline uni " + prog.Name)
		tr.NameThread(pid, 0, "cpu0")
	}
	m := vm.NewMachine(prog, nil, costs)
	startHash := m.StateHash()
	uni := sched.NewUni(m)
	uni.Trace, uni.TracePid, uni.TraceSpan = tr, pid, "baseline.uni.slice"
	ep, err := epoch.NewLiveLog(nil, 0).RunUni(uni, world)
	if err != nil {
		return nil, err
	}
	if traced {
		tr.Instant("baseline.uni.done", uni.Cycles, pid, 0,
			[]trace.Arg{trace.Int("slices", len(ep.Schedule)), trace.Int("syscalls", len(ep.Syscalls))})
	}

	rec := &dplog.Recording{Program: prog.Name, Epochs: []*dplog.EpochLog{ep}}
	// Sized before the hashes go in: LogBytes is what a uniprocessor
	// recorder has to log, and the hashes only let replay check itself.
	logBytes := rec.ReplaySize()
	ep.StartHash, ep.EndHash = startHash, m.StateHash()
	rec.FinalHash, rec.OutputHash = ep.EndHash, world.OutputHash()
	return &UniResult{
		Cycles:    uni.Cycles,
		Retired:   int64(uni.Retired()),
		Slices:    len(ep.Schedule),
		Syscalls:  len(ep.Syscalls),
		LogBytes:  logBytes,
		FinalHash: ep.EndHash,
		Faults:    m.Faults(),
		Recording: rec,
	}, nil
}
