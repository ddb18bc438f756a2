// Package race implements a vector-clock happens-before data-race detector
// that runs over a uniprocessor (epoch-parallel or baseline) execution's
// event stream. DoublePlay's divergences are caused exactly by data races;
// the detector names the racing addresses, which is how the divergence
// experiments attribute rollbacks and how the system's "replay, then find
// the race" debugging story (the paper's motivating use case) works.
package race

import (
	"fmt"
	"sort"

	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// vclock is a vector clock indexed by thread id.
type vclock []uint64

func (v vclock) get(i int) uint64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

func (v *vclock) set(i int, val uint64) {
	for len(*v) <= i {
		*v = append(*v, 0)
	}
	(*v)[i] = val
}

// join folds other into v element-wise (pointwise max).
func (v *vclock) join(other vclock) {
	for i, c := range other {
		if c > v.get(i) {
			v.set(i, c)
		}
	}
}

// hb reports whether the epoch (tid, clk) happened before the clock v.
func hb(tid int, clk uint64, v vclock) bool { return clk <= v.get(tid) }

// access is the shadow state of one memory word.
type access struct {
	writeTid int
	writeClk uint64
	readVC   vclock
}

// Report is one detected race.
type Report struct {
	Addr   vm.Word
	First  int // tid of the earlier access
	Second int // tid of the racing access
	Kind   string
}

func (r Report) String() string {
	return fmt.Sprintf("race on %d: %s between tid %d and tid %d", r.Addr, r.Kind, r.First, r.Second)
}

// Detector accumulates happens-before state over one execution. Attach its
// OnSync and OnMemAccess methods as machine hooks (or epoch.RunSpec
// observers). It assumes events arrive in a single total order, which holds
// for any uniprocessor execution.
type Detector struct {
	threads map[int]*vclock
	objs    map[vm.SyncObj]*vclock
	exits   map[int]vclock
	shadow  map[vm.Word]*access

	races   map[vm.Word]Report
	maxRace int
}

// NewDetector returns an empty detector. maxRaces caps distinct reported
// addresses (0 means 1024).
func NewDetector(maxRaces int) *Detector {
	if maxRaces <= 0 {
		maxRaces = 1024
	}
	return &Detector{
		threads: make(map[int]*vclock),
		objs:    make(map[vm.SyncObj]*vclock),
		exits:   make(map[int]vclock),
		shadow:  make(map[vm.Word]*access),
		races:   make(map[vm.Word]Report),
		maxRace: maxRaces,
	}
}

func (d *Detector) clock(tid int) *vclock {
	c := d.threads[tid]
	if c == nil {
		c = &vclock{}
		c.set(tid, 1)
		d.threads[tid] = c
	}
	return c
}

func (d *Detector) objClock(obj vm.SyncObj) *vclock {
	c := d.objs[obj]
	if c == nil {
		c = &vclock{}
		d.objs[obj] = c
	}
	return c
}

func (d *Detector) tick(tid int) {
	c := d.clock(tid)
	c.set(tid, c.get(tid)+1)
}

// OnSync processes a synchronisation event.
func (d *Detector) OnSync(ev vm.SyncEvent) {
	t := d.clock(ev.Tid)
	switch ev.Kind {
	case vm.SyncAcquire:
		t.join(*d.objClock(ev.Obj))
	case vm.SyncRelease:
		d.objClock(ev.Obj).join(*t)
		d.tick(ev.Tid)
	case vm.SyncAtomic:
		o := d.objClock(ev.Obj)
		t.join(*o)
		o.join(*t)
		d.tick(ev.Tid)
	case vm.SyncSpawn:
		child := d.clock(ev.Child)
		child.join(*t)
		d.tick(ev.Tid)
	case vm.SyncExit:
		d.exits[ev.Tid] = append(vclock(nil), (*t)...)
	case vm.SyncJoin:
		if exit, ok := d.exits[ev.Child]; ok {
			t.join(exit)
		}
	case vm.SyncBarArrive:
		d.objClock(ev.Obj).join(*t)
		d.tick(ev.Tid)
	case vm.SyncBarPass:
		// Conservative: join the barrier's accumulated clock, which may
		// include arrivals from the next generation (extra happens-before
		// edges can hide races but never fabricate one).
		t.join(*d.objClock(ev.Obj))
	}
}

// OnMemAccess processes a data memory access.
func (d *Detector) OnMemAccess(tid int, addr vm.Word, write bool) {
	t := d.clock(tid)
	s := d.shadow[addr]
	if s == nil {
		s = &access{writeTid: -1}
		d.shadow[addr] = s
	}
	if write {
		if s.writeTid >= 0 && s.writeTid != tid && !hb(s.writeTid, s.writeClk, *t) {
			d.report(addr, s.writeTid, tid, "write-write")
		}
		for rt, rc := range s.readVC {
			if rt != tid && rc > 0 && !hb(rt, rc, *t) {
				d.report(addr, rt, tid, "read-write")
			}
		}
		s.writeTid = tid
		s.writeClk = t.get(tid)
		s.readVC = nil
		return
	}
	if s.writeTid >= 0 && s.writeTid != tid && !hb(s.writeTid, s.writeClk, *t) {
		d.report(addr, s.writeTid, tid, "write-read")
	}
	s.readVC.set(tid, t.get(tid))
}

func (d *Detector) report(addr vm.Word, first, second int, kind string) {
	if _, seen := d.races[addr]; seen || len(d.races) >= d.maxRace {
		return
	}
	d.races[addr] = Report{Addr: addr, First: first, Second: second, Kind: kind}
}

// Races returns the detected races sorted by address.
func (d *Detector) Races() []Report {
	out := make([]Report, 0, len(d.races))
	for _, r := range d.races {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Count returns the number of distinct racy addresses found.
func (d *Detector) Count() int { return len(d.races) }

// Find executes prog uniprocessor against world under a fresh detector and
// returns the races found, sorted by address. One total order of events is
// exactly what the detector assumes.
func Find(prog *vm.Program, world *simos.World) ([]Report, error) {
	d := NewDetector(0)
	m := vm.NewMachine(prog, simos.NewOS(world), nil)
	m.Hooks.OnSync = d.OnSync
	m.Hooks.OnMemAccess = d.OnMemAccess
	if err := sched.NewUni(m).Run(); err != nil {
		return nil, err
	}
	return d.Races(), nil
}
