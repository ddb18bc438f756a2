// Package workloads defines the guest benchmark suite, mirroring the
// paper's evaluation mix: client programs (pbzip, pfscan, aget), server
// programs (webserve, kvdb), SPLASH-2-style scientific kernels (fft, lu,
// radix, ocean, water), and racy microbenchmarks for the divergence
// experiments. Every workload is a guest program built with internal/asm
// plus a simulated world, and every race-free workload self-checks its
// result: the guest stores 1 into its OK cell only if the computation's
// output is correct.
package workloads

import (
	"cmp"
	"fmt"

	"doubleplay/internal/asm"
	"doubleplay/internal/dplog"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// Word aliases the guest word type.
type Word = vm.Word

// Params size a workload build.
type Params struct {
	Workers int   // worker thread count (the paper evaluates 2 and 4)
	Scale   int   // problem size multiplier; 1 is the default size
	Seed    int64 // drives input generation
}

// MaxWorkers and MaxScale bound the Params a user may ask for, through the
// CLI, a daemon job spec or a log header (Params.Check). Every workload
// builds at MaxWorkers (TestBuildAtMaxWorkers), while some builders run out
// of guest registers from 37 workers on. At MaxScale pbzip, the largest
// input, allocates about 160 MB to build.
const (
	MaxWorkers = 32
	MaxScale   = 64
)

// Check refuses Params over MaxWorkers or MaxScale, naming the field and
// its limit. Every build whose Params come from outside input passes it
// first. A job's spare-worker counts are no Params; server.Spec.Validate
// bounds them by MaxWorkers beside its call to Check.
func (p Params) Check() error {
	switch {
	case p.Workers > MaxWorkers:
		return fmt.Errorf("workers %d is over the limit of %d", p.Workers, MaxWorkers)
	case p.Scale > MaxScale:
		return fmt.Errorf("scale %d is over the limit of %d", p.Scale, MaxScale)
	}
	return nil
}

func (p Params) norm() Params {
	if p.Workers <= 0 {
		p.Workers = 2
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Built is a ready-to-run workload instance.
type Built struct {
	Prog  *vm.Program
	World *simos.World
	// OK is the guest address of the self-check cell: 1 after a verified
	// run, 0 otherwise. Zero means the workload has no self-check.
	OK Word
	// RacyAddrs lists guest addresses of the intentionally racy cells in
	// workloads marked Racy — ground truth for cross-validating the
	// static race screen and the dynamic detector. Empty when race-free.
	RacyAddrs []Word
}

// CheckOK inspects a final checkpoint's memory for the self-check verdict.
func (bt *Built) CheckOK(peek func(Word) Word) error {
	if bt.OK == 0 {
		return nil
	}
	if got := peek(bt.OK); got != 1 {
		return fmt.Errorf("workload %s self-check failed (ok cell = %d)", bt.Prog.Name, got)
	}
	return nil
}

// Workload is one guest of the suite.
type Workload struct {
	Name string
	Kind string // "client", "server", "scientific", "micro"
	Desc string
	Racy bool // contains intentional data races
	// build assembles the guest for p and fills world with its inputs. A
	// nil world asks for the program alone: the builder draws every input
	// the program embeds, so code and data come out the same, and keeps
	// nothing that only the world would hold.
	build func(p Params, world *simos.World) *Built
}

// Build instantiates the guest with the world it runs against.
func (w *Workload) Build(p Params) *Built {
	return w.build(p, simos.NewWorld(p.norm().Seed))
}

// Program builds the guest's program alone, byte for byte the program Build
// returns, without its world. A replay takes every syscall result from its
// log and never reads a world, so every replay-only caller builds this.
func (w *Workload) Program(p Params) *vm.Program {
	return w.build(p, nil).Prog
}

// ForLog resolves the workload and parameters a log replays against. It is
// the one rule for every replay entry point: the header names the program,
// workers and seed, and a caller's non-zero name or value that disagrees
// with it is an error naming the field and both values. A field the header
// leaves zero takes the caller's. p.Scale stays the caller's, because the
// header does not carry it. The parameters returned are those the program
// is built at, defaults filled in, and pass Check.
func ForLog(h dplog.Header, name string, p Params) (*Workload, Params, error) {
	if err := cmp.Or(
		fromLog("workload", &name, h.Program),
		fromLog("workers", &p.Workers, h.Workers),
		fromLog("seed", &p.Seed, h.Seed),
	); err != nil {
		return nil, Params{}, err
	}
	if err := p.Check(); err != nil {
		return nil, Params{}, err
	}
	if name == "" {
		return nil, Params{}, fmt.Errorf("the log names no workload")
	}
	wl := Get(name)
	if wl == nil {
		return nil, Params{}, fmt.Errorf("unknown workload %q", name)
	}
	return wl, p.norm(), nil
}

// fromLog sets *v to the header's value logged unless that is zero, and
// fails when the caller's non-zero *v disagrees with it.
func fromLog[T comparable](field string, v *T, logged T) error {
	var zero T
	switch {
	case logged == zero:
	case *v != zero && *v != logged:
		return fmt.Errorf("%s %v disagrees with the log's %v", field, *v, logged)
	default:
		*v = logged
	}
	return nil
}

// suite lists every guest once, in the paper's presentation order: clients,
// servers, scientific kernels, then micros.
var suite = []Workload{
	{"pbzip", "client", "parallel block compressor: work-queue of blocks, RLE compress, verify by decompression, commit output", false, buildPbzip},
	{"pfscan", "client", "parallel file scanner: work-queue of files read through the VFS, counting pattern occurrences", false, buildPfscan},
	{"aget", "client", "parallel range downloader: workers fetch disjoint ranges of a remote resource over a latency-bound link", false, buildAget},
	{"webserve", "server", "threaded web server: worker pool accepts scripted connections, serves files from the VFS, lock-protected stats", false,
		func(p Params, w *simos.World) *Built { return buildWebserve(p, w, false) }},
	{"kvdb", "server", "transactional KV store: lock-striped hash table, per-thread transaction mix, batched WAL commits", false, buildKvdb},
	{"fft", "scientific", "SPLASH-style FFT: parallel iterative number-theoretic transform with a barrier per stage; exact self-inverse check", false, buildFFT},
	{"lu", "scientific", "SPLASH-style LU: in-place factorisation over GF(p) with row-interleaved workers, a barrier per pivot, and exact L*U reconstruction check", false, buildLU},
	{"radix", "scientific", "SPLASH-style radix sort: per-worker histograms, serial prefix phase, parallel scatter, barrier-synchronised passes", false, buildRadix},
	{"ocean", "scientific", "SPLASH-style ocean: Jacobi relaxation over a 2-D grid, rows split across workers, one barrier per sweep; checked against a host-mirrored result", false, buildOcean},
	{"water", "scientific", "SPLASH-style water: O(n^2) pairwise force evaluation and integration over particles, two barriers per timestep; checked against a host-mirrored result", false, buildWater},
	{"racey", "micro", "intentional data races: unlocked read-modify-write on hot counters and scattered array cells, mixed with locked work", true, buildRacey},
	{"webserve-racy", "micro", "webserve with an unsynchronised hit counter: a low-rate data race on a hot cell", true,
		func(p Params, w *simos.World) *Built { return buildWebserve(p, w, true) }},
	{"sigping", "micro", "asynchronous signals interrupt compute workers: handlers bill per-signal work against a known script; exercises signal logging and exact-point redelivery", false, buildSigping},
}

// Get returns the named workload, or nil.
func Get(name string) *Workload {
	for i := range suite {
		if suite[i].Name == name {
			return &suite[i]
		}
	}
	return nil
}

// All returns every workload in presentation order, in a fresh slice.
func All() []*Workload {
	out := make([]*Workload, len(suite))
	for i := range suite {
		out[i] = &suite[i]
	}
	return out
}

// Names returns every workload name in presentation order.
func Names() []string {
	out := make([]string, len(suite))
	for i, w := range suite {
		out[i] = w.Name
	}
	return out
}

// split sets [lo, hi) to worker k's share of total iterations divided
// among workers, shifted by off.
func split(w *asm.Func, k, lo, hi, t asm.Reg, total, workers, off Word) {
	w.Muli(t, k, total)
	w.Divi(lo, t, workers)
	if off != 0 {
		w.Addi(lo, lo, off)
	}
	w.Addi(t, k, 1)
	w.Muli(t, t, total)
	w.Divi(hi, t, workers)
	if off != 0 {
		w.Addi(hi, hi, off)
	}
}

// failed clears the verdict ok when the fail cell is set, loading the cell
// into f.
func failed(m *asm.Func, f, ok asm.Reg, cell Word) {
	failA := m.Const(cell)
	m.Ld(f, failA, 0)
	m.IfNz(f, func() { m.Movi(ok, 0) })
}

// finish stores the verdict ok into okCell, halts main and builds the
// program with main as its entry.
func finish(b *asm.Builder, m *asm.Func, ok asm.Reg, okCell Word, world *simos.World) *Built {
	m.St(m.Const(okCell), 0, ok)
	m.HaltImm(0)
	b.SetEntry("main")
	return &Built{Prog: b.MustBuild(), World: world, OK: okCell}
}

// spawnJoin emits the standard fork/join skeleton: spawn workers threads
// running fn with their index as the argument, then join them all.
func spawnJoin(m *asm.Func, workers int, fn string) {
	tids := m.Regs(workers)
	arg := m.Reg()
	for k := 0; k < workers; k++ {
		m.Movi(arg, Word(k))
		m.Spawn(tids[k], fn, arg)
	}
	for k := 0; k < workers; k++ {
		m.Join(tids[k])
	}
}

// hostRNG is a small deterministic generator for host-side input synthesis.
type hostRNG struct{ s uint64 }

func newRNG(seed int64) *hostRNG { return &hostRNG{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x1234567} }

func (r *hostRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// intn returns a value in [0, n).
func (r *hostRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// word returns a non-negative word below bound.
func (r *hostRNG) word(bound int64) Word { return Word(r.next() % uint64(bound)) }
