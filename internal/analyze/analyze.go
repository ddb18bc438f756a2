// Package analyze statically checks guest programs before a single
// instruction runs. It builds per-function control-flow graphs over
// vm.Program code, runs dataflow analyses (liveness, constant and
// lockset propagation), verifies structural invariants (branch targets,
// callee indices, lock balance, barrier pairing, falling off a function
// end), and screens for data-race candidates with an interprocedural
// static lockset discipline over every Spawn-reachable function.
//
// DoublePlay itself only discovers races dynamically, when the
// epoch-parallel and thread-parallel executions disagree at an epoch
// boundary. The lockset screen is the complementary static side: it
// over-approximates that divergence signal (every address the dynamic
// detector can implicate is covered by some candidate) so recording
// policy and test triage know up front which workloads can diverge.
package analyze

import (
	"fmt"
	"sort"

	"doubleplay/internal/vm"
)

// Severity ranks findings.
type Severity uint8

const (
	// SevInfo findings are observations (unreachable helper functions).
	SevInfo Severity = iota
	// sevWarning findings are likely bugs that cannot fault the machine
	// by themselves (race candidates, dead stores, lock imbalance on
	// some path).
	sevWarning
	// sevError findings fault or corrupt any execution that reaches them
	// (bad branch targets, unlocking a never-held lock, running off the
	// end of a function).
	sevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case sevWarning:
		return "warning"
	case sevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// Kind identifies a class of finding.
type Kind string

const (
	invalidProgram  Kind = "invalid-program"
	badBranch       Kind = "bad-branch"
	badCallee       Kind = "bad-callee"
	fallOffEnd      Kind = "fall-off-end"
	divByZeroImm    Kind = "div-by-zero"
	recursiveLock   Kind = "recursive-lock"
	unbalancedLock  Kind = "unbalanced-lock"
	lockAtExit      Kind = "lock-at-exit"
	barrierPairing  Kind = "barrier-pairing"
	deadStore       Kind = "dead-store"
	deadBlock       Kind = "dead-block"
	unreachableFunc Kind = "unreachable-func"
	raceCandidate   Kind = "race-candidate"
	// incomplete marks a spot the analysis could not cover soundly: an
	// address it cannot bound, an effect it does not model while threads
	// overlap, or an exhausted analysis budget. Incomplete findings never
	// indicate a bug by themselves — they indicate the absence of race
	// candidates proves nothing, so the program's Certificate degrades
	// from race-free to incomplete.
	incomplete Kind = "incomplete"
)

// Finding is one analyzer result.
type Finding struct {
	Kind Kind
	Sev  Severity
	Func string  // owning function name, if any
	PC   int     // code index the finding anchors to; -1 if none
	Addr vm.Word // race candidates: first address of the flagged location
	Size vm.Word // race candidates: extent of the location in words
	Msg  string
}

func (f Finding) String() string {
	loc := ""
	if f.Func != "" {
		loc = f.Func
		if f.PC >= 0 {
			loc += fmt.Sprintf("@%d", f.PC)
		}
		loc = " " + loc
	} else if f.PC >= 0 {
		loc = fmt.Sprintf(" @%d", f.PC)
	}
	return fmt.Sprintf("%s [%s]%s: %s", f.Sev, f.Kind, loc, f.Msg)
}

// Findings is the result of analyzing one program.
type Findings struct {
	Prog *vm.Program
	List []Finding
	// Cert is the race-freedom certificate derived from this analysis;
	// see Certificate for what each status licenses.
	Cert *Certificate
}

func (fs *Findings) add(f Finding) { fs.List = append(fs.List, f) }

// ByKind returns the findings of one kind, in report order.
func (fs *Findings) ByKind(k Kind) []Finding {
	var out []Finding
	for _, f := range fs.List {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

// Races returns the race-candidate findings.
func (fs *Findings) Races() []Finding { return fs.ByKind(raceCandidate) }

// Errors counts error-severity findings.
func (fs *Findings) Errors() int {
	n := 0
	for _, f := range fs.List {
		if f.Sev == sevError {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity findings.
func (fs *Findings) Warnings() int {
	n := 0
	for _, f := range fs.List {
		if f.Sev == sevWarning {
			n++
		}
	}
	return n
}

// Covers reports whether addr lies inside any race candidate's location —
// the property that makes the static screen a sound filter for the
// dynamic detector's reports.
func (fs *Findings) Covers(addr vm.Word) bool {
	for _, f := range fs.List {
		if f.Kind != raceCandidate {
			continue
		}
		if addr >= f.Addr && addr < f.Addr+f.Size {
			return true
		}
	}
	return false
}

// Summary renders a one-line account of the analysis.
func (fs *Findings) Summary() string {
	return fmt.Sprintf("%d findings (%d errors, %d warnings, %d race candidates)",
		len(fs.List), fs.Errors(), fs.Warnings(), len(fs.Races()))
}

func (fs *Findings) sort() {
	sort.SliceStable(fs.List, func(i, j int) bool {
		a, b := fs.List[i], fs.List[j]
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Msg < b.Msg
	})
}

// defaultBudget bounds the abstract instructions the interprocedural
// scan may interpret. It is far above what any suite workload needs; a
// guest program that exhausts it degrades to an incomplete certificate
// instead of unbounded analysis time.
const defaultBudget = 2_000_000

// Run analyzes prog under defaultBudget and returns every finding, most
// severe first, plus the program's race-freedom certificate in
// Findings.Cert. It never executes guest code and is safe on malformed
// programs: images that fail vm.Validate yield a single invalid-program
// error and an incomplete certificate.
func Run(prog *vm.Program) *Findings { return runBudget(prog, defaultBudget) }

// runBudget is Run with an explicit abstract-instruction budget.
// A budget <= 0 means unlimited.
func runBudget(prog *vm.Program, budget int) *Findings {
	fs := &Findings{Prog: prog}
	if err := prog.Validate(); err != nil {
		fs.add(Finding{Kind: invalidProgram, Sev: sevError, PC: -1, Msg: err.Error()})
		fs.Cert = &Certificate{
			Program: prog.Name,
			Status:  CertIncomplete,
			Reasons: []string{"program failed validation: " + err.Error()},
			Budget:  budget,
		}
		return fs
	}
	a := newAnalysis(prog, fs)
	a.budget = budget
	a.structural()
	a.checkLiveness()
	a.scanAll()
	a.screenRaces()
	a.reportUnreachableFuncs()
	fs.sort()
	fs.Cert = a.certificate()
	return fs
}

// ctxCap bounds distinct analysis contexts per function; beyond it the
// analyzer stops specializing (recursion on distinct constants would
// otherwise enumerate forever).
const ctxCap = 24

// threadClass identifies which kind of thread executes a context: the
// initial thread, a thread spawned on function root, or signal handler
// root. Two sites can race only across distinct classes, or within one
// class that can have multiple live instances.
type threadClass struct {
	kind classKind
	root int // spawned function or handler; 0 on the initial thread
}

type classKind uint8

const (
	mainThread classKind = iota
	spawned
	handler
)

// className renders a class as reports spell it: "main", "go:fn" or
// "sig:fn".
func (a *analysis) className(cl threadClass) string {
	switch cl.kind {
	case spawned:
		return "go:" + a.fname(cl.root)
	case handler:
		return "sig:" + a.fname(cl.root)
	}
	return "main"
}

type context struct {
	fn    int
	args  [vm.MaxArgs]aval
	lk    lockset
	class threadClass
	conc  bool // may execute while other threads are live
}

func (c *context) key() string {
	return fmt.Sprintf("%d|%v|%v|%d|%v|%t", c.fn, c.args, c.lk.must, c.lk.unk, c.class, c.conc)
}

type analysis struct {
	prog *vm.Program
	fs   *Findings
	cfgs []*cfg

	queue    []*context
	seen     map[string]bool
	perFn    []int // contexts analyzed per function
	capped   []bool
	analyzed []bool // function appeared in some context

	sites     []*site
	siteByKey map[string]*site
	once      map[string]bool // finding dedup across contexts

	anySpawn   bool
	spawnMulti []bool       // target can have >= 2 concurrently live instances
	spawnCycle map[int]bool // spawn pcs whose block lies on a CFG cycle
	hasBarrier []bool       // function contains barrier instructions
	maySpawn   []bool       // function contains or transitively calls a Spawn
	dataEnd    vm.Word

	// Certification state. budget caps the abstract instructions exec may
	// interpret (steps counts them); incompleteFns, valveTripped, and
	// racyFns carry per-function degradation into the certificate.
	budget        int
	steps         int
	budgetHit     bool
	incompleteFns map[int]bool
	valveTripped  map[int]bool
	racyFns       map[int]bool

	// ctxInst counts, per context key, how many thread instances can be
	// live with that context at once: a spawn site contributes one (two if
	// it sits on a loop), and a Call forwards its caller's count. A site
	// can race against itself only when the contexts that recorded it sum
	// to at least two instances — a worker whose addresses specialize on
	// its spawn argument exists exactly once per address and cannot.
	ctxInst map[string]int
}

func newAnalysis(prog *vm.Program, fs *Findings) *analysis {
	a := &analysis{
		prog:       prog,
		fs:         fs,
		cfgs:       make([]*cfg, len(prog.Funcs)),
		seen:       make(map[string]bool),
		perFn:      make([]int, len(prog.Funcs)),
		capped:     make([]bool, len(prog.Funcs)),
		analyzed:   make([]bool, len(prog.Funcs)),
		siteByKey:  make(map[string]*site),
		once:       make(map[string]bool),
		spawnMulti: make([]bool, len(prog.Funcs)),
		spawnCycle: make(map[int]bool),
		hasBarrier: make([]bool, len(prog.Funcs)),
		maySpawn:   make([]bool, len(prog.Funcs)),
		dataEnd:    prog.DataBase + vm.Word(len(prog.Data)),
		ctxInst:    make(map[string]int),

		incompleteFns: make(map[int]bool),
		valveTripped:  make(map[int]bool),
		racyFns:       make(map[int]bool),
	}
	for i := range prog.Funcs {
		a.cfgs[i] = buildCFG(prog, i)
	}
	a.surveySpawnsAndBarriers()
	return a
}

// surveySpawnsAndBarriers counts static spawn sites per target (a target
// spawned from two sites, or from a site on a CFG cycle, can have two
// live instances and therefore race against itself) and records which
// functions contain barrier instructions.
func (a *analysis) surveySpawnsAndBarriers() {
	counts := make([]int, len(a.prog.Funcs))
	calls := make([][]int, len(a.prog.Funcs)) // caller -> callees
	for fi, g := range a.cfgs {
		for bi := range g.blocks {
			b := &g.blocks[bi]
			for pc := b.start; pc < b.end; pc++ {
				in := a.prog.Code[pc]
				switch in.Op {
				case vm.OpSpawn:
					a.anySpawn = true
					a.maySpawn[fi] = true
					if t := int(in.Imm); t >= 0 && t < len(counts) {
						counts[t]++
						if g.onCycle(bi) {
							counts[t] += ctxCap // force multi
							a.spawnCycle[pc] = true
						}
					}
				case vm.OpCall:
					if t := int(in.Imm); t >= 0 && t < len(calls) {
						calls[fi] = append(calls[fi], t)
					}
				case vm.OpBarArrive, vm.OpBarWait:
					a.hasBarrier[fi] = true
				}
			}
		}
	}
	for i, n := range counts {
		a.spawnMulti[i] = n >= 2
	}
	// Propagate maySpawn over the call graph to a fixpoint: a function
	// that calls a spawning function may itself create concurrency.
	for changed := true; changed; {
		changed = false
		for fi, callees := range calls {
			if a.maySpawn[fi] {
				continue
			}
			for _, t := range callees {
				if a.maySpawn[t] {
					a.maySpawn[fi] = true
					changed = true
					break
				}
			}
		}
	}
}

func (a *analysis) fname(fn int) string {
	if fn >= 0 && fn < len(a.prog.Funcs) {
		return a.prog.Funcs[fn].Name
	}
	return fmt.Sprintf("fn%d", fn)
}

// report adds a finding once per dedup key (the same function is
// re-scanned under many contexts).
func (a *analysis) report(key string, f Finding) {
	if a.once[key] {
		return
	}
	a.once[key] = true
	a.fs.add(f)
}

// bumpInst credits key with n more live instances. Counts saturate at 2:
// the screen only distinguishes "at most one" from "several".
func (a *analysis) bumpInst(key string, n int) {
	a.ctxInst[key] = min(a.ctxInst[key]+n, 2)
}

// instOf returns the live-instance count of a context (at least 1: the
// context was reached, so something executes it).
func (a *analysis) instOf(c *context) int {
	return max(a.ctxInst[c.key()], 1)
}

// enqueue registers a context for scanning if it is new and the target
// function still has specialization budget.
func (a *analysis) enqueue(c *context) {
	if c.fn < 0 || c.fn >= len(a.prog.Funcs) {
		return
	}
	k := c.key()
	if a.seen[k] {
		return
	}
	if a.perFn[c.fn] >= ctxCap {
		a.capped[c.fn] = true
		return
	}
	a.seen[k] = true
	a.perFn[c.fn]++
	a.analyzed[c.fn] = true
	a.queue = append(a.queue, c)
}

// scanAll drives the interprocedural pass: starting from the entry
// function on the initial thread, every Call, Spawn, and SigH reachable
// from it contributes further contexts until the queue drains.
func (a *analysis) scanAll() {
	root := &context{fn: a.prog.Entry}
	for i := range root.args {
		root.args[i] = konst(0)
	}
	a.bumpInst(root.key(), 1)
	a.enqueue(root)
	for len(a.queue) > 0 && !a.budgetHit {
		c := a.queue[0]
		a.queue = a.queue[1:]
		a.scanContext(c)
	}
	if a.budgetHit {
		a.report("budget", Finding{
			Kind: incomplete, Sev: SevInfo, PC: -1,
			Msg: fmt.Sprintf("instruction budget exhausted after %d abstract steps; coverage is partial", a.steps),
		})
	}
	for fn, capped := range a.capped {
		if capped {
			a.report(fmt.Sprintf("cap|%d", fn), Finding{
				Kind: incomplete, Sev: SevInfo, Func: a.fname(fn), PC: a.prog.Funcs[fn].Entry,
				Msg: fmt.Sprintf("context budget exhausted for %q; some call sites analyzed imprecisely", a.fname(fn)),
			})
		}
	}
}

// entryState models the architectural guarantee that a fresh register
// file is zeroed and r1..r6 carry the caller's staged arguments.
func (a *analysis) entryState(c *context) absState {
	st := absState{valid: true}
	for i := range st.regs {
		st.regs[i] = konst(0)
	}
	for i := 0; i < vm.MaxArgs; i++ {
		st.regs[1+i] = c.args[i]
	}
	st.lk = c.lk
	if c.class.kind == mainThread && c.conc {
		st.kids = 1
	}
	return st
}

// scanContext runs the abstract interpreter over one function context to
// a fixpoint, then replays each reachable block once more in recording
// mode to emit findings, access sites, and callee contexts.
func (a *analysis) scanContext(c *context) {
	g := a.cfgs[c.fn]
	if len(g.blocks) == 0 || a.budgetHit {
		return
	}
	in := make([]absState, len(g.blocks))
	in[0] = a.entryState(c)
	work := []int{0}
	queued := make([]bool, len(g.blocks))
	queued[0] = true
	for steps := 0; len(work) > 0; steps++ {
		if steps > 200*len(g.blocks)+10000 {
			// Fixpoint safety valve; lattices are finite so this should not
			// trigger — if it does, coverage is partial and the certificate
			// must degrade.
			a.valveTripped[c.fn] = true
			break
		}
		if a.budgetHit {
			break
		}
		bi := work[0]
		work = work[1:]
		queued[bi] = false
		st := in[bi]
		for pc := g.blocks[bi].start; pc < g.blocks[bi].end; pc++ {
			a.exec(c, &st, pc, false)
		}
		for _, s := range g.blocks[bi].succs {
			if meetInto(&in[s], &st) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	for bi := range g.blocks {
		if !in[bi].valid {
			continue
		}
		st := in[bi]
		for pc := g.blocks[bi].start; pc < g.blocks[bi].end; pc++ {
			a.execRecord(c, &st, pc)
		}
	}
}

// reportUnreachableFuncs flags functions no analyzed context ever
// reached — typically library functions linked in but never called.
func (a *analysis) reportUnreachableFuncs() {
	for fn := range a.prog.Funcs {
		if a.analyzed[fn] || fn == a.prog.Entry {
			continue
		}
		// Functions sharing an entry with an analyzed one are aliases.
		alias := false
		for j := range a.prog.Funcs {
			if j != fn && a.analyzed[j] && a.prog.Funcs[j].Entry == a.prog.Funcs[fn].Entry {
				alias = true
				break
			}
		}
		if alias {
			continue
		}
		a.report(fmt.Sprintf("unreach|%d", fn), Finding{
			Kind: unreachableFunc, Sev: SevInfo, Func: a.fname(fn), PC: a.prog.Funcs[fn].Entry,
			Msg: fmt.Sprintf("function %q is never called, spawned, or installed as a handler", a.fname(fn)),
		})
	}
}
