package main

import (
	"fmt"
	"time"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/mem"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// guestSpec names one guest program instance. Everything the system under
// test sees is derived from these four values; Seed in turn is derived from
// the benchmark's -seed (see guestSeed).
type guestSpec struct {
	Prog    string
	Workers int
	Scale   int
	Seed    int64
}

func (g guestSpec) String() string {
	return fmt.Sprintf("%s/w%d/s%d/seed%d", g.Prog, g.Workers, g.Scale, g.Seed)
}

// build instantiates the guest. A World is consumed by one execution, so
// every record, native run and free run builds afresh.
func (g guestSpec) build() *workloads.Built {
	wl := workloads.Get(g.Prog)
	if wl == nil {
		panic("benchmark: unknown guest program " + g.Prog)
	}
	return wl.Build(workloads.Params{Workers: g.Workers, Scale: g.Scale, Seed: g.Seed})
}

// recordOptions are the recorder settings every library-driven recording in
// the benchmark uses: the paper's configuration (verify every epoch), record
// CPUs equal to the guest's workers as the daemon does, and spares as given.
func (g guestSpec) recordOptions(spares int) core.Options {
	return core.Options{
		Workers:      g.Workers,
		RecordCPUs:   g.Workers,
		SpareCPUs:    spares,
		Seed:         g.Seed,
		VerifyPolicy: core.VerifyAlways,
	}
}

// guestSeed derives the i-th guest input seed of a stream from the
// benchmark seed. Streams keep workloads from sharing inputs; the result is
// always positive because the daemon treats seed 0 as "default".
func guestSeed(benchSeed int64, stream, i int) int64 {
	x := uint64(benchSeed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 29
	return int64(x%1_000_000_007) + 1
}

// instrsOf returns the guest instructions a recording covers: the sum of the
// per-thread retired counts at its final boundary.
func instrsOf(rec *dplog.Recording) int64 {
	if len(rec.Epochs) == 0 {
		return 0
	}
	return sumTargets(rec.Epochs[len(rec.Epochs)-1].Targets)
}

func sumTargets(ts []uint64) int64 {
	var n int64
	for _, t := range ts {
		n += int64(t)
	}
	return n
}

// epochInstrs returns the instructions retired inside epoch i of rec.
func epochInstrs(rec *dplog.Recording, i int) int64 {
	n := sumTargets(rec.Epochs[i].Targets)
	if i > 0 {
		n -= sumTargets(rec.Epochs[i-1].Targets)
	}
	return n
}

// freeRun executes the guest to completion under the uniprocessor scheduler
// with no recording machinery. With hooked set, no-op OnSync and OnMemAccess
// observers are armed, which is what every recorder and detector pays before
// doing any work of its own.
func freeRun(g guestSpec, hooked bool) (d time.Duration, retired int64, err error) {
	bt := g.build()
	m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), vm.DefaultCosts())
	if hooked {
		m.Hooks.OnSync = func(vm.SyncEvent) {}
		m.Hooks.OnMemAccess = func(int, vm.Word, bool) {}
	}
	u := sched.NewUni(m)
	d = timed(func() { err = u.Run() })
	for _, t := range m.Threads {
		retired += int64(t.Retired)
	}
	return d, retired, err
}

// interpRates caches, per guest, the interpreter's free-running cost per
// instruction. It prices the "vm" share of spans that interpret guest code
// somewhere below a scheduler, an epoch runner or a replayer.
type interpRates map[guestSpec]float64 // ns per instruction

func (r interpRates) of(g guestSpec) float64 {
	if v, ok := r[g]; ok {
		return v
	}
	best := 0.0
	for i := 0; i < 2; i++ { // keep the faster of two: the first also warms caches
		d, n, err := freeRun(g, false)
		if err != nil || n == 0 {
			continue
		}
		if v := ns(d) / float64(n); best == 0 || v < best {
			best = v
		}
	}
	r[g] = best
	return best
}

// recordParts is what re-driving one recording's inner layers measured.
type recordParts struct {
	native       time.Duration // core.RunNative wall
	nativeCycles int64
	nativeInstrs int64
	epochRun     time.Duration // Σ epoch.Run over re-drivable epochs
	epochInstrs  int64
	epochsDriven int
	restore      []time.Duration // Checkpoint.Restore per boundary
	capture      []time.Duration // epoch.Capture per boundary
	checkpoint   []time.Duration // Machine.Checkpoint per boundary (inside Capture)
	snapshot     []time.Duration // Memory.Snapshot per boundary (inside Checkpoint)
}

// redriveRecord measures the layers reached only inside core.Record by
// calling their public entry points on the inputs that recording used: the
// thread-parallel half through core.RunNative, every epoch-parallel
// execution through epoch.Run from the retained boundary with the logged
// targets, sync order and syscalls, and every boundary through
// Checkpoint.Restore + epoch.Capture. Epochs that forward recovery replaced
// by a free re-run carry no sync order to follow and are skipped.
func redriveRecord(g guestSpec, res *core.Result) (recordParts, error) {
	var p recordParts
	bt := g.build()
	var nat *core.NativeResult
	var err error
	p.native = timed(func() { nat, err = core.RunNative(bt.Prog, bt.World, g.Workers, g.Seed, nil) })
	if err != nil {
		return p, fmt.Errorf("RunNative %s: %w", g, err)
	}
	p.nativeCycles, p.nativeInstrs = nat.Cycles, nat.Retired

	costs := vm.DefaultCosts()
	rec := res.Recording
	for i, ep := range rec.Epochs {
		if i >= len(res.Boundaries)-1 || ep.Certified {
			break
		}
		spec := epoch.RunSpec{
			Prog: bt.Prog, Start: res.Boundaries[i], Targets: ep.Targets,
			SyncOrder: ep.SyncOrder, Syscalls: ep.Syscalls, Signals: ep.Signals,
			Costs: costs,
		}
		var rerr error
		d := timed(func() { _, rerr = epoch.Run(spec) })
		if rerr != nil {
			continue
		}
		p.epochRun += d
		p.epochInstrs += epochInstrs(rec, i)
		p.epochsDriven++
	}
	for i, b := range res.Boundaries {
		var m *vm.Machine
		p.restore = append(p.restore, timed(func() { m = b.CP.Restore(bt.Prog, nil, costs) }))
		w := b.World
		if w == nil {
			w = bt.World
		}
		var nb *epoch.Boundary
		p.capture = append(p.capture, timed(func() { nb = epoch.Capture(i, b.Cycle, m, w) }))
		nb.CP.Release()
		var cp *vm.Checkpoint
		p.checkpoint = append(p.checkpoint, timed(func() { cp = m.Checkpoint() }))
		cp.Release()
		var snap *mem.Snapshot
		p.snapshot = append(p.snapshot, timed(func() { snap = m.Mem.Snapshot() }))
		snap.Release()
	}
	return p, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func dursUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
