// Package sched drives vm machines under the two execution disciplines
// DoublePlay composes: a discrete-event multiprocessor scheduler (the
// thread-parallel execution) and a deterministic uniprocessor timeslicing
// scheduler (the epoch-parallel execution and replay).
//
// Both schedulers take an optional *trace.Sink: Parallel emits one "run"
// span per thread↔CPU binding and Uni one "slice" span per timeslice.
// Tracing reads the schedulers' clocks but never advances them, so traced
// and untraced runs retire identical schedules and cycle counts.
package sched

import (
	"errors"
	"fmt"
	"math"

	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// ErrDeadlock reports that no thread can make progress.
var ErrDeadlock = errors.New("sched: deadlock — no thread can make progress")

// DefaultQuantum is the timeslice length, in retired instructions, used by
// both schedulers when multiplexing threads on one CPU.
const DefaultQuantum = 2000

// sysPollInterval is how often, in cycles, a thread blocked in a syscall
// re-attempts it.
const sysPollInterval = 200

// idleHop is how far, in cycles, an idle CPU's clock moves when runnable
// work exists but is all bound to other CPUs.
const idleHop = 10

// Parallel is a discrete-event simulation of an SMP running the guest
// machine: each CPU has its own clock, the CPU with the smallest clock
// executes the next instruction of its bound thread, and unbound runnable
// threads are dispatched to free CPUs round-robin. Instruction costs carry
// seeded jitter so different seeds produce different interleavings of racy
// accesses, modelling real hardware timing variation.
type Parallel struct {
	M       *vm.Machine
	CPUs    int
	Quantum int64

	// Trace, when set, receives one span per thread↔CPU binding (named
	// TraceSpan, default "run"), homed on (TracePid, guest tid) with the
	// CPU index in args — the thread-parallel occupancy timeline. Tracing
	// never alters any clock; leaving the field nil disables it.
	Trace     *trace.Sink
	TracePid  int64
	TraceSpan string

	// Signals, when set, produces the asynchronous signals the run
	// delivers. Its producers name a clock (a live world's: see Signals),
	// which ends the windows; they do not stop at a retired count. Resume
	// keeps it.
	Signals Signals

	cpus     []pcpu
	nBound   int     // CPUs with a bound thread
	scanFrom int     // round-robin cursor for dispatch fairness
	sysPoll  []int64 // by thread id: earliest clock of its next syscall retry
	retired  int64

	// Timing jitter, found ahead: the next jitterGap retirements cost what
	// the machine charged, the one after them jitterExtra cycles more. See
	// drawJitter.
	jitter      jitterStream
	jitterGap   int
	jitterExtra int64

	// Windows (window.go). The counters say how much of the run they
	// carried: instructions retired inside committed windows, windows
	// committed, windows an event cut short after some CPU had run past it
	// (that CPU ran again, shorter), and windows abandoned to the strict
	// loop because two CPUs touched an address one of them wrote. What they
	// cost: the instructions RunWindow executed, committed or not, which
	// counts every run again after a cut, a slow retirement or a conflict.
	WindowRetired        int64
	Windows              int64
	WindowEventAborts    int64
	WindowConflictAborts int64
	WindowExecuted       int64

	win     []winCPU
	conf    []confEntry
	confGen uint16
	backoff int64
	// noWindowBefore is the one thing RunUntil's loop compares per pass: no
	// window opens before this cycle — the back-off after a conflict, or
	// never on a machine whose costs cannot bound one (see start).
	noWindowBefore int64
}

type pcpu struct {
	clock  int64
	th     *vm.Thread // bound thread, or nil
	sliceN int64
	bindTs int64 // clock at bind time, for the "run" trace span
}

// NewParallel builds a scheduler for m over the given number of CPUs.
func NewParallel(m *vm.Machine, cpus int, seed int64) *Parallel {
	if cpus < 1 {
		cpus = 1
	}
	p := &Parallel{
		CPUs:    cpus,
		Quantum: DefaultQuantum,
		cpus:    make([]pcpu, cpus),
	}
	p.jitter.seed(seed)
	p.start(m)
	return p
}

// Resume restarts p on machine m — the guest restored from a checkpoint —
// as NewParallel(m, p.CPUs, seed) would start it, with every clock at c:
// all CPUs idle, the jitter stream begun afresh from seed. This is forward
// recovery's hand-over. The scheduler keeps its settings, its buffers, and
// its counts of work done (Retired and the Window counters), which go on
// accumulating over the squashed and the adopted execution alike.
func (p *Parallel) Resume(m *vm.Machine, seed, c int64) {
	p.jitter.seed(seed)
	for i := range p.cpus {
		p.cpus[i] = pcpu{clock: c}
	}
	p.nBound, p.scanFrom, p.sysPoll = 0, 0, p.sysPoll[:0]
	p.backoff, p.noWindowBefore = 0, 0
	p.start(m)
}

// start points the scheduler at m and draws the first jitter gap.
func (p *Parallel) start(m *vm.Machine) {
	p.M = m
	// A window tells its retirements apart by the cycle they start at, so
	// every plain instruction must cost one at least; and the conflict check
	// names CPUs in 16 bits.
	if floor, _ := m.PlainCosts(); floor < 1 || len(p.cpus) > 1<<16 {
		p.noWindowBefore = math.MaxInt64
	}
	p.drawJitter()
}

// drawJitter finds the distance to the next jittered retirement and draws
// its size. Each retirement is slow with probability 1/64 and a slow one
// costs up to 23 cycles more: the stream is the one a per-retirement
// Intn(64), with an Intn(24) right after each hit, would draw from
// rand.NewSource(seed), but the scheduler owns the generator's ring
// (jitter.go), so the gap is a lookup and the loop around Step makes no
// draw at all.
func (p *Parallel) drawJitter() {
	p.jitterGap = p.jitter.gap()
	p.jitterExtra = p.jitter.intn24()
}

// Now returns the frontier of simulated time: the smallest CPU clock, which
// is the cycle at which the next instruction will execute.
func (p *Parallel) Now() int64 {
	min := p.cpus[0].clock
	for _, c := range p.cpus[1:] {
		if c.clock < min {
			min = c.clock
		}
	}
	return min
}

// WallTime returns the completion time so far: the largest CPU clock.
func (p *Parallel) WallTime() int64 {
	max := p.cpus[0].clock
	for _, c := range p.cpus[1:] {
		if c.clock > max {
			max = c.clock
		}
	}
	return max
}

// Retired returns the total instructions retired under this scheduler.
func (p *Parallel) Retired() int64 { return p.retired }

// bound reports whether t is bound to any CPU.
func (p *Parallel) bound(t *vm.Thread) bool {
	for i := range p.cpus {
		if p.cpus[i].th == t {
			return true
		}
	}
	return false
}

// pollAt returns the clock at which blocked thread tid may next retry its
// syscall; a thread that never blocked may retry at once.
func (p *Parallel) pollAt(tid int) int64 {
	if tid < len(p.sysPoll) {
		return p.sysPoll[tid]
	}
	return 0
}

// dispatch finds work for CPU ci: an unbound runnable thread, or an unbound
// syscall-blocked thread whose poll timer has expired.
func (p *Parallel) dispatch(ci int) *vm.Thread {
	threads := p.M.Threads
	n := len(threads)
	if n == 0 {
		return nil
	}
	for k := 0; k < n; k++ {
		t := threads[(p.scanFrom+k)%n]
		if t.Status == vm.Runnable && !p.bound(t) {
			p.scanFrom = (p.scanFrom + k + 1) % n
			p.bind(ci, t)
			return t
		}
	}
	clock := p.cpus[ci].clock
	for k := 0; k < n; k++ {
		t := threads[(p.scanFrom+k)%n]
		if t.Status == vm.BlockedSys && !p.bound(t) && p.pollAt(t.ID) <= clock {
			p.bind(ci, t)
			return t
		}
	}
	return nil
}

// bind gives CPU ci's next timeslice to t.
func (p *Parallel) bind(ci int, t *vm.Thread) {
	cpu := &p.cpus[ci]
	cpu.th = t
	cpu.sliceN = 0
	cpu.bindTs = cpu.clock
	p.nBound++
}

// unbind releases CPU ci's thread.
func (p *Parallel) unbind(ci int) {
	cpu := &p.cpus[ci]
	if p.Trace.Enabled() && cpu.th != nil && cpu.clock > cpu.bindTs {
		name := p.TraceSpan
		if name == "" {
			name = "run"
		}
		p.Trace.Span(name, cpu.bindTs, cpu.clock-cpu.bindTs,
			p.TracePid, int64(cpu.th.ID), []trace.Arg{trace.Int("cpu", ci)})
	}
	if cpu.th != nil {
		p.nBound--
	}
	cpu.th = nil
	cpu.sliceN = 0
}

// RunUntil executes until every CPU's clock reaches limit, the machine
// terminates, or no progress is possible. It returns ErrDeadlock (wrapped
// with machine state) when live threads exist but none can ever run.
//
// The loop below is the definition of the schedule. While no hook observes
// plain instructions, stretches of it are executed a window at a time
// instead (window.go) — to the same effect, bit for bit.
func (p *Parallel) RunUntil(limit int64) error {
	idleStreak := 0
	m, cpus := p.M, p.cpus
	// One pass per distinct value of the frontier: the CPUs whose clocks
	// equal it execute in index order, each until its clock moves on, and
	// the smallest clock seen on the way is the next frontier. No clock
	// ever moves backwards or below the frontier, so this is the order
	// "smallest clock next, lowest index on ties" produces one instruction
	// at a time.
	for now := p.Now(); !m.Done(); {
		if now >= limit {
			return nil
		}
		unobserved := !m.Hooks.ObservesPlain()
		if now >= p.noWindowBefore && unobserved {
			if committed, ranOut := p.window(limit); committed {
				// Every clock is now at or past the window's end. If every
				// CPU ran it out the next one can open right there; if
				// not, the pass below executes what cut it short.
				idleStreak = 0
				if now = p.Now(); ranOut || now >= limit {
					continue
				}
			}
		}
		m.Now = now
		next := int64(math.MaxInt64)
		for ci := range cpus {
			cpu := &cpus[ci]
			for cpu.clock == now && !m.Done() {
				t := cpu.th
				if t == nil || t.Status != vm.Runnable {
					// Unbound, or the bound thread blocked or died between
					// steps (e.g. barrier side effects): find other work.
					p.unbind(ci)
					t = p.dispatch(ci)
				}
				if t == nil {
					// Nothing for this CPU. If some thread is blocked in a syscall,
					// time itself will unblock it: hop the clock to the next poll.
					if at, ok := p.nextSysPoll(); ok {
						if at <= cpu.clock {
							at = cpu.clock + 1
						}
						cpu.clock = at
						idleStreak++
						if idleStreak > 1<<20 {
							return fmt.Errorf("sched: livelock polling syscalls\n%s", m.DescribeState())
						}
						continue
					}
					if p.anyRunnable() {
						// Runnable work exists but is bound to busier CPUs; idle
						// briefly and retry (models an idle core waiting for work).
						cpu.clock += idleHop
						idleStreak++
						if idleStreak > 1<<20 {
							return fmt.Errorf("sched: livelock waiting for work\n%s", m.DescribeState())
						}
						continue
					}
					return fmt.Errorf("%w\n%s", ErrDeadlock, m.DescribeState())
				}
				idleStreak = 0
				// A due signal is delivered first. Otherwise, unobserved,
				// m.RunSlice(t, 1) retires a plain instruction for the cost
				// Step would charge, without Step's overhead.
				var res vm.StepResult
				delivered := false
				if p.Signals != nil {
					res, delivered = deliverDue(m, p.Signals, t)
				}
				if !delivered {
					if unobserved {
						if n, c := m.RunSlice(t, 1); n == 1 {
							res = vm.StepResult{Retired: true, Cost: c}
						}
					}
					if !res.Retired {
						res = m.Step(t)
					}
				}
				if cost := res.Cost; res.Retired {
					p.retired++
					// Timing jitter: occasional slow memory access. This is the
					// hardware nondeterminism that makes racy programs produce
					// different interleavings under different seeds.
					if p.jitterGap == 0 {
						cost += p.jitterExtra
						p.drawJitter()
					} else {
						p.jitterGap--
					}
					cpu.clock += cost
					cpu.sliceN++
					if !t.Status.Live() || cpu.sliceN >= p.Quantum {
						p.unbind(ci)
					}
					continue
				}
				// The step did not retire: the thread blocked (or re-blocked).
				if t.Status == vm.BlockedSys {
					for len(p.sysPoll) <= t.ID {
						p.sysPoll = append(p.sysPoll, 0)
					}
					p.sysPoll[t.ID] = cpu.clock + sysPollInterval
				}
				// Release the CPU; a tiny charge models the failed attempt.
				cpu.clock += 1
				p.unbind(ci)
			}
			next = min(next, cpu.clock)
		}
		now = next
	}
	return nil
}

// Run executes to completion.
func (p *Parallel) Run() error {
	const forever = int64(1) << 62
	return p.RunUntil(forever)
}

// AddCost advances every CPU clock by c cycles, modelling work that pauses
// the whole machine — taking a checkpoint, draining log buffers.
func (p *Parallel) AddCost(c int64) {
	for i := range p.cpus {
		p.cpus[i].clock += c
	}
}

func (p *Parallel) nextSysPoll() (int64, bool) {
	var best int64
	found := false
	for _, t := range p.M.Threads {
		if t.Status != vm.BlockedSys || p.bound(t) {
			continue
		}
		at := p.pollAt(t.ID)
		if !found || at < best {
			best = at
			found = true
		}
	}
	return best, found
}

func (p *Parallel) anyRunnable() bool {
	for _, t := range p.M.Threads {
		if t.Status == vm.Runnable {
			return true
		}
	}
	return false
}
