package main

import "time"

// The reference kernel is a fixed piece of work that belongs to the
// benchmark, not to the system under test: a small bytecode interpreter over
// paged copy-on-write memory that checkpoints and hashes the way the real
// pipeline does, so that whatever slows the real pipeline on a shared
// machine slows the kernel by about as much. The harness runs a slice of it
// before and after every set-up and every round and divides the wall time of
// what lies between by the machine-speed factor the two slices read (see
// speedFactor). After its first slice the kernel allocates nothing — pages
// and page tables are recycled — so the collector never runs on its behalf
// and its time does not depend on the heap of the program being measured.
//
// FROZEN: a change to this file changes the unit every host-time metric is
// expressed in. Never edit it together with, or because of, a change to the
// system under test.

const (
	refPageWords = 512    // 4 KB pages
	refPages     = 1024   // 4 MB of guest memory
	refCodeLen   = 4096   // instructions of guest program
	refEpoch     = 20_000 // instructions between checkpoints
	refKeep      = 4      // checkpoints kept alive

	// refSliceInstrs is the work of one slice of a full run.
	refSliceInstrs = 24_000_000
	// refNominal is how long such a slice takes on the reference box when
	// the box is undisturbed; it only fixes the scale of the reported numbers.
	refNominal = 80 * time.Millisecond
)

type refPage [refPageWords]uint64

type refInstr struct {
	op      uint8
	a, b, c uint8
	imm     uint32
}

type refEvent struct {
	pc   int
	addr uint64
	val  uint64
}

type refMachine struct {
	instrs int // per slice
	code   []refInstr
	pages  []*refPage
	owned  []bool // page written since the last checkpoint: no copy needed
	regs   [16]uint64
	pc     int
	log    []refEvent
	kept   [][]*refPage // page tables of the last refKeep checkpoints
	free   []*refPage
	hash   uint64
}

// newRefMachine builds a kernel whose slices retire instrs instructions.
func newRefMachine(instrs int) *refMachine {
	m := &refMachine{
		instrs: instrs,
		code:   make([]refInstr, refCodeLen),
		pages:  make([]*refPage, refPages),
		owned:  make([]bool, refPages),
		log:    make([]refEvent, 0, refEpoch),
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range m.code {
		r := next()
		m.code[i] = refInstr{op: uint8(r % 16), a: uint8(r >> 8 & 15), b: uint8(r >> 16 & 15), c: uint8(r >> 24 & 15), imm: uint32(r >> 32)}
	}
	for i := range m.pages {
		p := new(refPage)
		for j := range p {
			p[j] = next()
		}
		m.pages[i] = p
		m.owned[i] = true
	}
	for i := range m.regs {
		m.regs[i] = next()
	}
	return m
}

// checkpoint folds the pages written since the last checkpoint and the
// epoch's log into the hash, keeps the current page table with every page
// marked shared, and drops the oldest kept table, recycling the pages only
// it still held.
func (m *refMachine) checkpoint() {
	for i, own := range m.owned {
		if own {
			h := m.hash
			for _, w := range m.pages[i] {
				h = (h ^ w) * 0x100000001b3
			}
			m.hash = h
			m.owned[i] = false
		}
	}
	for i := range m.log {
		e := &m.log[i]
		m.hash = (m.hash ^ e.val ^ e.addr + uint64(e.pc)) * 0x100000001b3
	}
	m.log = m.log[:0]

	var table []*refPage
	if len(m.kept) == refKeep {
		// A page is replaced at most once between checkpoints and never
		// comes back, so one the next table no longer holds is held by none.
		table = m.kept[0]
		for i, p := range table {
			if p != m.kept[1][i] {
				m.free = append(m.free, p)
			}
		}
		copy(m.kept, m.kept[1:])
		m.kept = m.kept[:refKeep-1]
	} else {
		table = make([]*refPage, refPages)
	}
	copy(table, m.pages)
	m.kept = append(m.kept, table)
}

// run retires n instructions.
func (m *refMachine) run(n int) {
	regs := &m.regs
	for i := 0; i < n; i++ {
		if i%refEpoch == 0 {
			m.checkpoint()
		}
		in := m.code[m.pc]
		m.pc++
		if m.pc == len(m.code) {
			m.pc = 0
		}
		switch in.op {
		case 0, 1:
			regs[in.a] = regs[in.b] + regs[in.c]
		case 2:
			regs[in.a] = regs[in.b] ^ (regs[in.c] >> 3)
		case 3:
			regs[in.a] = regs[in.b]*0x2545f4914f6cdd1d + uint64(in.imm)
		case 4:
			regs[in.a] = regs[in.b] - uint64(in.imm)
		case 5:
			if regs[in.b] < regs[in.c] {
				regs[in.a]++
			}
		case 6, 7, 8, 9: // load
			addr := regs[in.b] + uint64(in.imm)
			regs[in.a] ^= m.pages[addr/refPageWords%refPages][addr%refPageWords]
		case 10, 11: // store, copy-on-write
			addr := regs[in.b] + uint64(in.imm)
			pi := addr / refPageWords % refPages
			if !m.owned[pi] {
				var np *refPage
				if k := len(m.free); k > 0 {
					np, m.free = m.free[k-1], m.free[:k-1]
				} else {
					np = new(refPage)
				}
				*np = *m.pages[pi]
				m.pages[pi] = np
				m.owned[pi] = true
			}
			m.pages[pi][addr%refPageWords] = regs[in.a]
		case 12: // branch
			if regs[in.a]&3 == 0 {
				m.pc = int(in.imm) % len(m.code)
			}
		case 13: // logged event: a system call result, a synchronisation
			m.log = append(m.log, refEvent{pc: m.pc, addr: regs[in.b], val: regs[in.c]})
		default:
			regs[in.a] = regs[in.a]<<1 | regs[in.a]>>63
		}
	}
}

// slice runs one slice of the kernel and returns its wall time.
func (m *refMachine) slice() time.Duration {
	return timed(func() { m.run(m.instrs) })
}

// speedFactor is how much slower than the undisturbed reference box the
// machine ran around a piece of work, read from the kernel slices just
// before and just after it: 1.25 means the same code took a quarter longer.
func (m *refMachine) speedFactor(before, after time.Duration) float64 {
	nominal := float64(refNominal) * float64(m.instrs) / refSliceInstrs
	return float64(before+after) / 2 / nominal
}

// speedAround is the machine-speed factor for round i of a run whose slices
// bracket its rounds (slices[i] before round i, slices[i+1] after it): the
// median of the four slices nearest the round — the two that bracket it and
// their neighbours. Two samples alone would let one burst that hits an 80 ms
// slice, and not much of the second-long round beside it, over-correct the
// round; a phase that lasts longer than a few rounds moves all four.
func (m *refMachine) speedAround(slices []time.Duration, i int) float64 {
	lo, hi := i-1, i+2
	if lo < 0 {
		lo = 0
	}
	if hi > len(slices)-1 {
		hi = len(slices) - 1
	}
	var near []float64
	for _, d := range slices[lo : hi+1] {
		near = append(near, float64(d))
	}
	d := time.Duration(median(near))
	return m.speedFactor(d, d)
}
