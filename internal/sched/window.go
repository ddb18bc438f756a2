package sched

import (
	"math"
	"math/bits"

	"doubleplay/internal/vm"
)

// Windows. RunUntil's strict loop retires one instruction per visit, in the
// order (start clock, CPU index). Whenever nothing needs to watch plain
// instructions go by, window speculates that the next stretch of that order
// is free of conflicts: every bound CPU runs its plain instructions that
// start before a common end in one go, against guest memory as it stood
// when the window opened and with its stores held in a buffer. If no CPU
// read or wrote an address another one wrote, each load saw the value the
// strict order would have given it and each address has one writer, so the
// buffers commit to exactly the strict result; if not, every thread is put
// back, memory was never touched, and the strict loop runs the stretch.
// The timing jitter is charged afterwards, by place, to the retirements the
// strict loop would have charged it to.
// DESIGN.md key decision 8 has the invariants and the tests that pin them.

const (
	// maxWindowSpan caps a window's length in cycles. A longer window
	// spreads its fixed cost (a register-file snapshot per CPU, the
	// conflict check, placement, the commit) over more instructions, and a
	// CPU that an event or a slow retirement cuts short runs more of it
	// again; 48 measured ahead of 32 (EXPERIMENTS.md "ISSUE 52"). A
	// window's start cycles are one uint64, so it is at most 64. At the
	// default two cycles per memory access a CPU fills one of its
	// vm.WindowCap-entry lists only if two thirds of its cycles are loads,
	// or stores; that ends the window like an event, and no guest of the
	// suite does it (its window counts are those of 32-entry lists).
	maxWindowSpan = 48
	// minWindowSpan is the shortest stretch worth a window's fixed cost
	// (a register-file snapshot per CPU and the conflict check).
	minWindowSpan = 3
	// After a conflict no window opens for backoff cycles past the
	// contested stretch; the pause doubles from minBackoff with every
	// conflict up to maxBackoff and halves with every commit, so a guest
	// that races all the time soon stops paying for attempts and one that
	// raced once is forgiven.
	minBackoff = 64
	maxBackoff = 1 << 14
)

// winCPU is one CPU's part in the window being attempted.
type winCPU struct {
	vm.Window
	retired uint64
	cycles  int64
	last    int64 // cost of the last instruction retired
	// Set by place: bit k for each retirement kept that starts k cycles
	// after the window's earliest clock, jitter included, and the jitter
	// the CPU's clock takes on top of cycles.
	at    uint64
	delay int64
}

// confEntry is one slot of the conflict check's address table: an address
// whose low 32 bits are addr was stored to by cpu in the window numbered
// gen. Addresses that differ only above bit 32 share a slot, which can make
// the check report a conflict that is not one — the safe direction.
type confEntry struct {
	addr uint32
	gen  uint16
	cpu  uint16
}

// window attempts one window ending no later than limit, nor than the
// clock at which a bound thread's next signal falls due, and reports whether
// it committed one that retired something, and if so whether every CPU ran
// it out: if not, the instruction that cut it short is the strict loop's to
// execute next. The caller has checked that no hook observes plain
// instructions.
func (p *Parallel) window(limit int64) (committed, ranOut bool) {
	cpus := p.cpus
	// Who takes part. An idle CPU with a thread it could dispatch is about
	// to bind it, which changes who runs where; only the strict loop does
	// that. (A CPU whose thread is not Runnable is about to unbind; RunWindow
	// will not touch the thread, which ends the window at that CPU's clock.)
	bound := p.nBound
	if bound == 0 || bound < len(cpus) && p.dispatchable() {
		return false, false
	}
	lo, end := int64(math.MaxInt64), limit
	for ci := range cpus {
		if t := cpus[ci].th; t != nil {
			lo = min(lo, cpus[ci].clock)
			if p.Signals != nil {
				// No instruction may start at or after a signal's clock:
				// the strict loop delivers it there.
				_, _, at := p.Signals.Next(t.ID)
				end = min(end, at)
			}
		}
	}
	end = min(end, lo+maxWindowSpan)
	if end-lo < minWindowSpan {
		return false, false
	}
	if p.win == nil {
		p.win = make([]winCPU, len(cpus))
		n := 1
		for n < 2*len(cpus)*vm.WindowCap {
			n <<= 1
		}
		p.conf = make([]confEntry, n)
	}

	// Run, as if no retirement were slow. Guest memory is not written here,
	// so the order the CPUs run in does not matter. A CPU that stops short
	// of end met something the window cannot contain — a sync op, sys,
	// spawn, join, halt, a fault, the end of its quantum — at cycle s.
	// Nothing that starts at or after s may be in the window with it: the
	// strict loop has to execute that instruction at its own clock, before
	// the later ones of every CPU and against their effects on none. So the
	// window ends at s for everyone, and CPUs that already ran past s go
	// back and run again, shorter.
	cut, shortened := false, false
	for ci := range cpus {
		if cpus[ci].th == nil {
			continue
		}
		p.win[ci].Open(cpus[ci].th)
		if s, stopped := p.runCPU(ci, end); stopped {
			cut, end = true, s
			for cj := 0; cj < ci; cj++ {
				w, cpu := &p.win[cj], &cpus[cj]
				if cpu.th != nil && w.retired > 0 && cpu.clock+w.cycles-w.last >= end {
					w.Undo(cpu.th)
					p.runCPU(cj, end)
					shortened = true
				}
			}
		}
	}
	if shortened {
		p.WindowEventAborts++
	}
	var total uint64
	for ci := range cpus {
		w := &p.win[ci]
		w.at = 0
		if cpus[ci].th != nil {
			w.at = w.Starts << uint64(cpus[ci].clock-lo)
			total += w.retired
		}
	}
	if total == 0 {
		return false, false
	}
	if bound > 1 && p.conflict() {
		for ci := range cpus {
			if cpus[ci].th != nil {
				p.win[ci].Undo(cpus[ci].th)
			}
		}
		p.WindowConflictAborts++
		p.backoff = min(max(2*p.backoff, minBackoff), maxBackoff)
		p.noWindowBefore = end + p.backoff
		return false, false
	}

	// Jitter. A CPU that place delays past end runs again, shorter; what it
	// keeps is a prefix of what it ran, so the check above still holds.
	total = p.place(end - lo)
	for ci := range cpus {
		w, cpu := &p.win[ci], &cpus[ci]
		if keep := uint64(bits.OnesCount64(w.at)); cpu.th != nil && keep < w.retired {
			w.Undo(cpu.th)
			w.retired, w.cycles, w.last = p.M.RunWindow(cpu.th, &w.Window, keep, end-cpu.clock)
			p.WindowExecuted += int64(w.retired)
		}
	}

	// Commit: the stores, then in bulk what the strict loop does per
	// retirement. An idle CPU hops until its clock reaches end, as it would
	// have each time the frontier came round to it.
	for ci := range cpus {
		cpu := &cpus[ci]
		if cpu.th == nil {
			if cpu.clock < end {
				cpu.clock += (end - cpu.clock + idleHop - 1) / idleHop * idleHop
			}
			continue
		}
		w := &p.win[ci]
		w.Commit(p.M)
		cpu.clock += w.cycles + w.delay
		cpu.sliceN += int64(w.retired)
	}
	p.retired += int64(total)
	p.WindowRetired += int64(total)
	p.Windows++
	p.backoff >>= 1
	return true, !cut
}

// runCPU runs CPU ci's thread from where its open window stands up to cycle
// end. If the thread stopped short it returns the cycle it stopped at.
func (p *Parallel) runCPU(ci int, end int64) (s int64, stopped bool) {
	cpu, w := &p.cpus[ci], &p.win[ci]
	budget := end - cpu.clock
	if budget <= 0 {
		w.retired, w.cycles, w.last = 0, 0, 0
		return 0, false
	}
	// The retirement that brings sliceN to Quantum unbinds the thread.
	n := max(p.Quantum-cpu.sliceN-1, 0)
	w.retired, w.cycles, w.last = p.M.RunWindow(cpu.th, &w.Window, uint64(n), budget)
	p.WindowExecuted += int64(w.retired)
	return cpu.clock + w.cycles, w.cycles < budget
}

// place charges the timing jitter to the window's retirements as RunUntil's
// loop would. Their start cycles, counted from the window's earliest clock,
// are the bits of each win[ci].at; span is the window's length. Counting
// them in (start cycle, CPU index) order, place calls drawJitter at every
// slow one, and that CPU starts everything after it jitterExtra cycles
// later — which can push some of it to span or beyond, out of the window.
// Since no retirement moves before one already counted, the count stays in
// order. place returns how many retirements the window keeps.
func (p *Parallel) place(span int64) (total uint64) {
	for ci := range p.win {
		p.win[ci].delay = 0
		total += uint64(bits.OnesCount64(p.win[ci].at))
	}
	inSpan := uint64(1)<<span - 1
	for pos := uint64(0); ; { // pos retirements counted
		slow := pos + uint64(p.jitterGap)
		if slow >= total {
			p.jitterGap -= int(total - pos)
			return total
		}
		t, w := p.nth(slow)
		after := w.at &^ (2<<t - 1)
		moved := after << p.jitterExtra & inSpan
		w.at = w.at&^after | moved
		w.delay += p.jitterExtra
		total -= uint64(bits.OnesCount64(after) - bits.OnesCount64(moved))
		pos = slow + 1
		p.drawJitter()
	}
}

// nthStep is nth's first step: the largest power of two below
// maxWindowSpan, so that the halving steps can reach every cycle of a
// window.
var nthStep = uint(1) << (bits.Len(maxWindowSpan-1) - 1)

// nth returns the start cycle of retirement k, counted from zero in (start
// cycle, CPU index) order, and the CPU it falls to.
func (p *Parallel) nth(k uint64) (uint, *winCPU) {
	var t uint        // the last cycle before which no more than k start…
	var before uint64 // …and how many do
	for step := nthStep; step > 0; step >>= 1 {
		if n := p.startsBefore(t + step); n <= k {
			t, before = t+step, n
		}
	}
	k -= before
	for ci := range p.win {
		if w := &p.win[ci]; w.at>>t&1 != 0 {
			if k == 0 {
				return t, w
			}
			k--
		}
	}
	panic("sched: window retirement out of range")
}

// startsBefore counts the window's retirements that start before cycle t.
func (p *Parallel) startsBefore(t uint) (n uint64) {
	below := uint64(1)<<t - 1
	for ci := range p.win {
		n += uint64(bits.OnesCount64(p.win[ci].at & below))
	}
	return n
}

// conflict reports whether any CPU in the window loaded or stored an
// address another CPU stored to.
func (p *Parallel) conflict() bool {
	p.confGen++
	if p.confGen == 0 {
		clear(p.conf)
		p.confGen = 1
	}
	gen, tab, mask := p.confGen, p.conf, uint64(len(p.conf)-1)
	for ci := range p.cpus {
		if p.cpus[ci].th == nil {
			continue
		}
		for _, st := range p.win[ci].Stores {
			for h := confHash(st.Addr) & mask; ; h = (h + 1) & mask {
				e := &tab[h]
				if e.gen != gen {
					*e = confEntry{uint32(st.Addr), gen, uint16(ci)}
					break
				}
				if e.addr == uint32(st.Addr) {
					if e.cpu != uint16(ci) {
						return true
					}
					break
				}
			}
		}
	}
	for ci := range p.cpus {
		if p.cpus[ci].th == nil {
			continue
		}
		for _, addr := range p.win[ci].Loads {
			for h := confHash(addr) & mask; ; h = (h + 1) & mask {
				e := &tab[h]
				if e.gen != gen {
					break
				}
				if e.addr == uint32(addr) {
					if e.cpu != uint16(ci) {
						return true
					}
					break
				}
			}
		}
	}
	return false
}

func confHash(addr vm.Word) uint64 {
	return uint64(addr) * 0x9e3779b97f4a7c15 >> 40
}

// dispatchable reports whether an idle CPU would find a thread to bind: an
// unbound thread that is Runnable, or blocked in a syscall it will retry.
func (p *Parallel) dispatchable() bool {
	for _, t := range p.M.Threads {
		if (t.Status == vm.Runnable || t.Status == vm.BlockedSys) && !p.bound(t) {
			return true
		}
	}
	return false
}
