// Package core implements DoublePlay's primary contribution: uniparallel
// recording. A thread-parallel execution of the guest runs across multiple
// simulated CPUs generating epoch checkpoints, while an epoch-parallel
// execution re-runs each epoch with all threads timesliced on one CPU,
// constrained by the recorded synchronisation order and fed the recorded
// syscall results. The epoch-parallel execution is the one that is logged
// — its log is just the timeslice schedule plus syscalls — and the one that
// replay reproduces. When a data race makes the two executions disagree at
// an epoch boundary, forward recovery adopts the epoch-parallel state as
// the truth and resumes the thread-parallel run from it.
//
// This package owns the recording control loop and everything only it can
// know: epoch boundary placement, the verification pipeline's timing model
// ([Options.SpareCPUs], or the adaptive spare-core controller behind
// [Options.Adaptive] — see adaptive.go), divergence detection and both
// forward-recovery strategies, and the per-run aggregates in [Stats]. When [Options.Trace]
// or [Options.Metrics] is set, the recorder additionally narrates the run
// — epoch/verify/commit spans, checkpoint and divergence events, log-append
// instants — without perturbing a single simulated cycle (see
// internal/trace and docs/OBSERVABILITY.md).
package core

import (
	"context"
	"errors"
	"fmt"

	"doubleplay/internal/analyze"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/profile"
	"doubleplay/internal/race"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// DefaultEpochCycles is the default epoch length in simulated cycles,
// chosen so the evaluation workloads span tens of epochs — the regime the
// paper's steady-state pipeline numbers describe.
const DefaultEpochCycles = 25_000

// Options configure a recording run.
type Options struct {
	// RecordCPUs is the number of cores the thread-parallel execution uses;
	// it defaults to the guest's worker count + 1 when Workers is set, or 2.
	RecordCPUs int

	// SpareCPUs is the number of additional cores available to the
	// epoch-parallel pipeline. Zero selects the "utilized" configuration:
	// both executions time-share the record CPUs. With Adaptive set it is
	// the controller's starting point, clamped into
	// [AdaptiveMinSpares, AdaptiveMaxSpares].
	SpareCPUs int

	// Adaptive replaces the fixed SpareCPUs pipeline with a feedback
	// controller that grows and shrinks the active slot count at epoch
	// boundaries from the live commit-lag signal (see adaptive.go). The
	// controller only consumes simulated quantities and only acts at
	// epoch boundaries, so adaptive recordings stay deterministic and
	// replay bit-identically from the log alone.
	Adaptive bool

	// AdaptiveMinSpares and AdaptiveMaxSpares bound the controller.
	// Defaults: min 1; max SpareCPUs (or min, when larger). Min is at least
	// 1: the utilized (0-spare) configuration has no slot to park.
	AdaptiveMinSpares int
	AdaptiveMaxSpares int

	// Workers documents the guest's worker thread count for reporting.
	Workers int

	// EpochCycles is the epoch length in simulated cycles.
	EpochCycles int64

	// EpochGrowth, when > 1, grows the epoch length geometrically after
	// every verified epoch, up to EpochCyclesMax. Short early epochs bound
	// divergence-detection latency while the program is young; long steady
	// -state epochs amortise checkpoint costs. A divergence resets the
	// length to EpochCycles.
	EpochGrowth    float64
	EpochCyclesMax int64

	// Quantum is the uniprocessor timeslice in retired instructions.
	Quantum int64

	// Seed drives all simulated timing nondeterminism.
	Seed int64

	// Costs overrides the cost model; nil selects vm.DefaultCosts.
	Costs *vm.CostModel

	// DisableSyncEnforcement turns off the sync-order gate during
	// epoch-parallel runs (ablation: every lock race becomes a divergence).
	DisableSyncEnforcement bool

	// DetectRaces attaches a happens-before detector to the epoch-parallel
	// executions. Races are reported in Result.Races. The detector observes
	// the verified (logged) execution stream; epochs replaced by re-run
	// recovery are not instrumented.
	DetectRaces bool

	// VerifyPolicy selects whether the epoch-parallel verification pass may
	// be skipped on the strength of a static race-freedom certificate. See
	// the VerifyCertified docs for the exact soundness and fallback rules.
	// The zero value, VerifyAlways, is the paper's behaviour.
	VerifyPolicy VerifyPolicy

	// MaxEpochs bounds the recording as a safety net.
	MaxEpochs int

	// KeepBoundaries selects the boundaries Result.Boundaries returns. The
	// zero value keeps every boundary. n ≥ 1 keeps every n-th and the
	// final one, exactly the set replay.Thin(all, n) would pick, and a
	// negative value keeps the final boundary only. A boundary not kept
	// releases its checkpoint when its epoch commits, so what a recording
	// holds grows with the boundaries it keeps, not with its epoch count.
	KeepBoundaries int

	// Context, when non-nil, cancels the recording cooperatively: the
	// control loop checks it at every epoch boundary and returns
	// [ErrCanceled] (wrapping ctx.Err()) once it is done. Epoch
	// boundaries are the natural cancellation points — simulated state is
	// never left half-committed — so cancellation latency is bounded by
	// one epoch's host execution time.
	Context context.Context

	// Trace, when set, receives the recording's event timeline:
	// epoch/verify/commit spans, checkpoint create/restore, divergences and
	// recoveries, per-append syscall/sync/signal instants, and pipeline
	// slot occupancy, kept or streamed as the trace.Sink behind it was
	// made to (trace.NewSink, trace.NewStreamSink). Tracing is observational
	// only — it never changes any simulated clock, so all Stats are
	// bit-identical with and without it. docs/OBSERVABILITY.md documents
	// every event.
	Trace trace.Recorder

	// Metrics, when non-nil, aggregates counters, gauges, and histograms
	// about the recording, labelled by workload (and epoch for per-epoch
	// series).
	Metrics *trace.Registry

	// Profile, when non-nil, accumulates a deterministic guest profile of
	// the logged execution: retired cycles attributed to guest call stacks,
	// derived purely from the retired-instruction streams the log captures.
	// Replaying the recording with any replay strategy regenerates the
	// exact same profile (see internal/profile). Like Trace, profiling is
	// observational only: no simulated quantity changes.
	Profile *profile.Profile
}

func (o Options) withDefaults() Options {
	if o.RecordCPUs <= 0 {
		o.RecordCPUs = max(o.Workers+1, 2)
	}
	if o.EpochCycles <= 0 {
		o.EpochCycles = DefaultEpochCycles
	}
	o.EpochGrowth = max(o.EpochGrowth, 1)
	if o.EpochCyclesMax <= 0 {
		o.EpochCyclesMax = 16 * o.EpochCycles
	}
	if o.Quantum <= 0 {
		o.Quantum = sched.DefaultQuantum
	}
	if o.Costs == nil {
		o.Costs = vm.DefaultCosts()
	}
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 1 << 16
	}
	if o.Adaptive {
		if o.AdaptiveMinSpares <= 0 {
			o.AdaptiveMinSpares = 1
		}
		if o.AdaptiveMaxSpares <= 0 {
			o.AdaptiveMaxSpares = o.SpareCPUs
		}
		o.AdaptiveMaxSpares = max(o.AdaptiveMaxSpares, o.AdaptiveMinSpares)
	}
	return o
}

// Stats aggregates everything the evaluation reports about one recording.
type Stats struct {
	Epochs      int
	Retired     int64 // guest instructions retired by the thread-parallel run
	SyncEvents  int   // gated sync operations logged
	Syscalls    int   // syscalls logged
	Signals     int   // asynchronous deliveries logged
	Slices      int   // timeslices in the replay schedule
	GuestFaults int   // threads that ended faulted

	Divergences     int // epochs whose executions disagreed
	HashRecoveries  int // recovered by adopting the epoch-parallel state
	RerunRecoveries int // recovered by re-running the epoch uniprocessor
	SquashedCycles  int64

	// SpareGrows and SpareShrinks count the adaptive controller's
	// decisions; ActiveSpares is the slot count at completion (equal to
	// SpareCPUs on fixed-spares runs, 0 in the utilized configuration).
	SpareGrows   int
	SpareShrinks int
	ActiveSpares int

	CheckpointPages int64 // Σ mapped pages over all checkpoints
	CowPages        int64 // pages copied by checkpoint copy-on-write

	// ThreadParallelCycles is when the thread-parallel run finished;
	// CompletionCycles is when the last epoch was verified and logged —
	// the time at which recording is complete and output commits.
	ThreadParallelCycles int64
	CompletionCycles     int64
	EpochSerialCycles    int64 // Σ epoch-parallel execution durations

	ReplayBytes int // encoded size of the replay log
	FullBytes   int // including the transient sync-order log
	FileBytes   int // actual on-disk dplog v6 size (sectioned, compressed)

	// VerifySkipped counts epochs committed directly from the logged
	// thread-parallel execution under VerifyCertified. Either zero or
	// equal to Epochs: the skip decision is made once, before recording.
	VerifySkipped int

	// CertStatus is the static certificate's classification when
	// VerifyCertified was requested ("race-free", "possibly-racy",
	// "incomplete"); empty under VerifyAlways.
	CertStatus string

	// VerifyFallback explains why a VerifyCertified run verified every
	// epoch anyway; empty when the skip was taken or never requested.
	VerifyFallback string
}

// Result is a completed recording.
type Result struct {
	Recording *dplog.Recording
	// Raw is Recording encoded uncompressed, the bytes
	// dplog.MarshalBytesWith(Recording, dplog.EncodeOptions{}) returns: the
	// same walk that sized the log made it, so a caller that stores the log
	// does not encode it again.
	Raw []byte
	// Boundaries are the epoch-start checkpoints Options.KeepBoundaries
	// kept, in epoch order and always ending with the final boundary, for
	// parallel replay and the guest's self-check. None holds a World: a
	// boundary's world is dropped when it leaves the recorder's window.
	Boundaries []*epoch.Boundary
	Stats      Stats
	FinalHash  uint64
	OutputHash uint64

	// Races holds the happens-before reports when Options.DetectRaces was
	// set.
	Races []race.Report

	// Divergences details every epoch whose executions disagreed.
	Divergences []DivergenceInfo

	// Certificate is the static race-freedom certificate consulted when
	// Options.VerifyPolicy was VerifyCertified; nil under VerifyAlways.
	Certificate *analyze.Certificate
}

// DivergenceInfo is the forensic record of one divergence.
type DivergenceInfo struct {
	Epoch int
	// Kind is "state" (end hashes differed; epoch-parallel state adopted)
	// or "input" (syscall/sync mismatch; epoch re-executed).
	Kind string
	// Reason carries the detector's message for input divergences.
	Reason string
	// Pages lists the memory pages on which the two executions disagreed
	// (state divergences only) — the hint a developer chases with the race
	// detector.
	Pages []vm.Word
}

// ReleaseCheckpoints drops the kept boundaries' hold on shared memory
// pages and hands every page no other holder maps back for reuse by the
// next page a memory materialises or copies; the recorder already released
// the boundaries it did not keep. Call it when parallel replay is no longer
// needed; the Recording itself remains valid for sequential replay.
func (r *Result) ReleaseCheckpoints() {
	for _, b := range r.Boundaries {
		b.CP.Release()
	}
	r.Boundaries = nil
}

// sysLogCost prices recording a batch of syscall records: a flat append
// plus a fraction of the input data copied into the log buffer.
func sysLogCost(recs []dplog.SyscallRecord, c *vm.CostModel) int64 {
	var cost int64
	for i := range recs {
		cost += c.SysLogEvent
		for _, w := range recs[i].Writes {
			cost += int64(len(w.Data)) / 8
		}
	}
	return cost
}

// pipeline models when each epoch's epoch-parallel execution runs and
// finishes, given the spare cores available. With spare cores it is an
// event-driven machine: an epoch starts when its start checkpoint exists
// and a spare core frees up, and cannot commit before its end checkpoint
// exists. With no spare cores ("utilized"), epoch work displaces
// thread-parallel work on the same cores.
//
// Slots beyond active are parked: they take no new work, but work already
// scheduled on them still finishes. The adaptive controller parks and
// unparks slots at epoch boundaries via setActive; fixed-spares pipelines
// keep active == len(spares) for the whole run.
type pipeline struct {
	spares     []int64
	active     int
	recordCPUs int
	busy       int64
	lastFinish int64
}

// newPipeline allocates slots spare cores, of which the first active take
// work; a fixed-spares pipeline has them all active, and none at all is
// the utilized configuration.
func newPipeline(slots, active, recordCPUs int) *pipeline {
	return &pipeline{spares: make([]int64, slots), active: active, recordCPUs: recordCPUs}
}

// setActive parks or unparks slots at simulated cycle now. An unparked
// slot models a core acquired at the decision point: it cannot have been
// free before now, so its free-time is raised to now.
func (p *pipeline) setActive(n int, now int64) {
	n = min(max(n, 1), len(p.spares))
	for i := p.active; i < n; i++ {
		p.spares[i] = max(p.spares[i], now)
	}
	p.active = n
}

// placement reports where the pipeline ran one epoch's verification: on
// which spare core (slot, -1 in the utilized configuration), over which
// simulated interval, and whether it had to wait for a core — the
// occupancy-saturation signal the adaptive controller consumes. finish is
// the epoch's commit point.
type placement struct {
	slot          int
	start, finish int64
	waited        bool
}

func (p *pipeline) schedule(startReady, checkReady, dur int64) placement {
	if p.active > 0 {
		c := 0
		for i := 1; i < p.active; i++ {
			if p.spares[i] < p.spares[c] {
				c = i
			}
		}
		waited := p.spares[c] > startReady
		start := max(p.spares[c], startReady)
		fin := max(start+dur, checkReady)
		p.spares[c] = fin
		p.lastFinish = max(p.lastFinish, fin)
		return placement{slot: c, start: start, finish: fin, waited: waited}
	}
	start := checkReady + p.busy/int64(p.recordCPUs)
	p.busy += dur
	fin := checkReady + p.busy/int64(p.recordCPUs)
	p.lastFinish = max(p.lastFinish, fin)
	return placement{slot: -1, start: start, finish: fin}
}

// slotTid maps a pipeline slot to its trace track id within the record
// process: tid 0 is the epoch/recovery track, spare slot s is tid 1+s, and
// the utilized configuration's smeared epoch work shares tid 1.
func slotTid(slot int) int64 {
	if slot < 0 {
		return 1
	}
	return int64(1 + slot)
}

func (p *pipeline) completion(tpFinish int64) int64 {
	fin := tpFinish
	if len(p.spares) == 0 {
		fin += p.busy / int64(p.recordCPUs)
	}
	return max(fin, p.lastFinish)
}

// Record performs a uniparallel recording of prog against world. The world
// is mutated; pass a freshly built one. Each epoch is produced by the
// thread-parallel run, verified by the epoch-parallel run of its log, and
// committed, in epoch order (DESIGN.md, key decision 15).
func Record(prog *vm.Program, world *simos.World, opt Options) (*Result, error) {
	r, vs := newRecorder(prog, world, opt.withDefaults())
	for !r.m.Done() {
		p, err := r.produce()
		if err == nil {
			err = r.commit(p, verify(vs, p))
		}
		if err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// recorder is the state one recording's produce and commit steps share.
// Its boundaries are a window: last, the latest boundary, and while an
// epoch is pending its start too. Only the window's boundaries hold a
// World; a boundary leaves it when its epoch commits (DESIGN.md, key
// decision 24).
type recorder struct {
	prog       *vm.Program
	opt        Options
	tr         *trace.Sink
	reg        *trace.Registry
	wl         string // workload label for metrics
	pidRec     int64
	live       *epoch.LiveLog
	m          *vm.Machine
	par        *sched.Parallel
	liveProf   *profile.Profiler
	last       *epoch.Boundary   // the latest boundary: the next epoch's start
	boundaries []*epoch.Boundary // the committed ones Options.KeepBoundaries keeps
	rec        *dplog.Recording
	pl         *pipeline
	ctl        *controller
	det        *race.Detector
	cert       *analyze.Certificate
	stats      Stats
	divInfo    []DivergenceInfo
	epochLen   int64
}

// pending is a produced epoch awaiting commit: its index, boundaries and
// log, and the pages its end checkpoint mapped and copied.
type pending struct {
	i           int
	start, end  *epoch.Boundary
	ep          *dplog.EpochLog
	mapped, cow int64
}

// verdictKind is what verification decided about one epoch.
type verdictKind int

const (
	verdictCertified verdictKind = iota // committed unverified on a race-free certificate
	verdictVerified                     // the epoch-parallel run reached the boundary state
	verdictAdopt                        // it met its targets in another state, which is adopted
	verdictRerun                        // it departed from the log; the epoch is re-run
	verdictFatal                        // it failed outright
)

// verdict is verify's result: the epoch-parallel run (nil when certified)
// with its trace, profile and cost, and the divergence or failure. The
// run's machine and trace buffer are the verifier slot's, valid until the
// next verify.
type verdict struct {
	kind  verdictKind
	res   *epoch.RunResult
	epbuf *trace.Sink
	prof  *profile.Profile
	dur   int64
	err   error
}

// verifier is everything verify reads besides the epoch: the RunSpec
// fields every epoch shares, what every epoch's verification does, and
// the slot it runs on (DESIGN.md, key decision 19).
type verifier struct {
	spec                        epoch.RunSpec
	ctx                         context.Context
	certified, traced, profiled bool

	// slot is the spare CPU that verifies every epoch, and epbuf, when
	// traced, its timeslice buffer: verifier state kept across epochs, one
	// epoch's until the next verify empties the buffer and reloads the
	// machine. Commit reads both and releases the machine's memory.
	slot  *epoch.Slot
	epbuf *trace.Sink
}

// newRecorder sets up a recording up to its first boundary, and its verifier.
func newRecorder(prog *vm.Program, world *simos.World, opt Options) (*recorder, verifier) {
	// A nil Trace, like a nil *trace.Sink in it, is the disabled sink:
	// *trace.Sink is the only Recorder.
	r := &recorder{prog: prog, opt: opt, reg: opt.Metrics, epochLen: opt.EpochCycles}
	r.tr, _ = opt.Trace.(*trace.Sink)
	tr := r.tr
	if r.reg != nil {
		r.wl = trace.Label("workload", prog.Name)
	}
	// Static race-freedom certification. Under VerifyCertified a race-free
	// certificate lets every epoch commit directly from the logged
	// thread-parallel execution; any other status — or an option that needs
	// the epoch-parallel pass regardless — falls back to full verification
	// with the reason recorded in Stats.VerifyFallback.
	certified := false
	if opt.VerifyPolicy == VerifyCertified {
		r.cert = analyze.Run(prog).Cert
		r.stats.CertStatus = string(r.cert.Status)
		switch {
		case opt.DetectRaces:
			r.stats.VerifyFallback = "race detection requires the epoch-parallel pass"
		case opt.DisableSyncEnforcement:
			r.stats.VerifyFallback = "sync-order enforcement disabled; the certificate assumes the gate"
		case !r.cert.RaceFree():
			r.stats.VerifyFallback = fmt.Sprintf("certificate is %s, not race-free", r.cert.Status)
		default:
			certified = true
		}
	}
	// The adaptive controller replaces the fixed slot count: SpareCPUs
	// becomes the starting point, and the pipeline gets MaxSpares slots of
	// which only the controller's active count take work. A certified run
	// has no verification pipeline to pace, so the controller stays off.
	slots, active := opt.SpareCPUs, opt.SpareCPUs
	if opt.Adaptive && !certified {
		r.ctl = newController(opt.AdaptiveMinSpares, opt.AdaptiveMaxSpares, opt.SpareCPUs)
		slots, active = opt.AdaptiveMaxSpares, r.ctl.active
	}
	var pidGuest int64
	if tr.Enabled() {
		r.pidRec = tr.AllocPid("record " + prog.Name)
		pidGuest = tr.AllocPid("guest " + prog.Name + " (thread-parallel)")
		tr.NameThread(r.pidRec, 0, "epochs + recovery")
		if slots > 0 {
			for s := 0; s < slots; s++ {
				tr.NameThread(r.pidRec, int64(1+s), fmt.Sprintf("pipeline slot %d", s))
			}
		} else {
			tr.NameThread(r.pidRec, 1, "epoch work (shared cores)")
		}
		if r.ctl != nil {
			tr.Instant("ctl.enable", 0, r.pidRec, 0, []trace.Arg{
				trace.Int("min", r.ctl.lo), trace.Int("max", r.ctl.hi), trace.Int("active", r.ctl.active),
			})
			tr.Counter("ctl.active", 0, r.pidRec, int64(r.ctl.active))
		}
		if r.cert != nil {
			tr.Instant("certify", 0, r.pidRec, 0, []trace.Arg{
				trace.String("status", string(r.cert.Status)), trace.Bool("skip", certified),
				trace.String("fallback", r.stats.VerifyFallback),
			})
		}
	}

	// The thread-parallel machine is the one that logs: syscall results,
	// sync order and signal positions come from its live world.
	r.live = epoch.NewLiveLog(tr, pidGuest)
	r.m = vm.NewMachine(prog, nil, opt.Costs)
	r.live.Attach(r.m, world)
	// Certified recordings log the thread-parallel execution itself, so the
	// guest profile is gathered there; otherwise it comes from the
	// epoch-parallel runs verify makes — the execution the log actually
	// describes and replay reproduces.
	if opt.Profile != nil && certified {
		r.liveProf = profile.New(prog)
		r.liveProf.Attach(r.m)
	}
	r.par = sched.NewParallel(r.m, opt.RecordCPUs, opt.Seed)
	r.par.Trace = tr
	r.par.TracePid = pidGuest
	r.par.Signals = r.live.Signals()

	r.last = epoch.Capture(0, 0, r.m, world)
	if tr.Enabled() {
		tr.Instant("checkpoint.create", 0, r.pidRec, 0,
			[]trace.Arg{trace.Int("epoch", 0), trace.Int("pages", r.last.MappedPages)})
	}
	r.rec = &dplog.Recording{Program: prog.Name, Workers: opt.Workers, Seed: opt.Seed, Quantum: opt.Quantum}
	r.pl = newPipeline(slots, active, opt.RecordCPUs)
	vs := verifier{
		spec: epoch.RunSpec{Prog: prog, Quantum: opt.Quantum, Costs: opt.Costs,
			DisableEnforcement: opt.DisableSyncEnforcement},
		ctx: opt.Context, certified: certified, traced: tr.Enabled(), profiled: opt.Profile != nil,
		slot: new(epoch.Slot),
	}
	if vs.traced {
		vs.epbuf = trace.NewSink()
	}
	if opt.DetectRaces {
		r.det = race.NewDetector(0)
		vs.spec.OnSync, vs.spec.OnMemAccess = r.det.OnSync, r.det.OnMemAccess
	}
	return r, vs
}

// produce runs the thread-parallel execution to the next epoch boundary,
// charges the epoch's record-time costs and captures the boundary.
func (r *recorder) produce() (pending, error) {
	if ctx := r.opt.Context; ctx != nil && ctx.Err() != nil {
		return pending{}, fmt.Errorf("%w after %d epochs: %w", ErrCanceled, len(r.rec.Epochs), ctx.Err())
	}
	if r.last.Index >= r.opt.MaxEpochs {
		return pending{}, fmt.Errorf("%w: exceeded %d; runaway guest?", ErrTooManyEpochs, r.opt.MaxEpochs)
	}
	next := r.last.Cycle + r.epochLen
	var runErr error
	profile.WithPhase(r.opt.Context, "record", func() { runErr = r.par.RunUntil(next) })
	if runErr != nil {
		return pending{}, fmt.Errorf("core: thread-parallel run failed: %w", runErr)
	}

	// Charge the record-time costs this epoch accrued: log appends,
	// copy-on-write traffic behind the last checkpoint, and the
	// checkpoint we are about to take.
	costs := r.opt.Costs
	ep := r.live.Take()
	cow := r.m.Mem.Stats().PagesCopied
	r.m.Mem.ResetStats()
	mapped := int64(r.m.Mem.PageCount())
	r.par.AddCost(int64(len(ep.SyncOrder)+len(ep.Signals))*costs.SyncLogEvent +
		sysLogCost(ep.Syscalls, costs) +
		costs.CheckpointBase + costs.CheckpointPage*mapped +
		cow*costs.CowCopyPage)
	r.stats.CheckpointPages += mapped
	r.stats.CowPages += cow

	p := pending{i: r.last.Index, start: r.last, ep: ep, mapped: mapped, cow: cow}
	b := epoch.Capture(p.i+1, r.par.Now(), r.m, r.live.World())
	p.end, r.last = b, b
	ep.Index, ep.Targets, ep.StartHash = p.i, b.Targets(), p.start.Hash
	ep.CommitHash = b.World.OutputHash()
	r.stats.SyncEvents += len(ep.SyncOrder)
	r.stats.Syscalls += len(ep.Syscalls)
	r.stats.Signals += len(ep.Signals)

	if tr := r.tr; tr.Enabled() {
		// The thread-parallel execution of epoch i, and the log-append running
		// totals at its boundary. Every produced epoch is committed.
		tr.Span("epoch", p.start.Cycle, b.Cycle-p.start.Cycle, r.pidRec, 0, []trace.Arg{
			trace.Int("epoch", p.i), trace.Int("syscalls", len(ep.Syscalls)),
			trace.Int("syncops", len(ep.SyncOrder)), trace.Int("signals", len(ep.Signals)),
		})
		tr.Instant("checkpoint.create", b.Cycle, r.pidRec, 0,
			[]trace.Arg{trace.Int("epoch", p.i+1), trace.Int("pages", mapped), trace.Int("cow_pages", cow)})
		tr.Counter("log.syscalls", b.Cycle, r.pidRec, int64(r.stats.Syscalls))
		tr.Counter("log.syncops", b.Cycle, r.pidRec, int64(r.stats.SyncEvents))
		tr.Counter("log.signals", b.Cycle, r.pidRec, int64(r.stats.Signals))
		tr.Counter("mem.pages", b.Cycle, r.pidRec, mapped)
	}
	return p, nil
}

// verify runs the epoch-parallel execution of p's log from its start
// boundary, constrained and injected, on vs's slot, and compares its end
// state with the thread-parallel run's; a certified epoch is not run. It
// reads only vs and p and writes no recorder state (stats, pipeline,
// trace, metrics, controller, guest profile, divergences): commit acts on
// the verdict. The slot it runs on is verifier state. The one exception
// is the race detector behind vs.spec's hooks under DetectRaces, which
// observes the run as it goes.
func verify(vs verifier, p pending) verdict {
	if vs.certified {
		return verdict{kind: verdictCertified}
	}
	// Traced timeslices stay epoch-local until commit places the epoch.
	v := verdict{epbuf: vs.epbuf}
	v.epbuf.Reset()
	spec := vs.spec
	spec.Start, spec.Targets, spec.Trace = p.start, p.ep.Targets, v.epbuf
	spec.SyncOrder, spec.Syscalls, spec.Signals = p.ep.SyncOrder, p.ep.Syscalls, p.ep.Signals
	if vs.profiled {
		spec.Profile = profile.New(spec.Prog)
	}
	var err error
	profile.WithPhase(vs.ctx, "verify", func() { v.res, err = vs.slot.Run(spec) })
	v.dur = v.res.Cycles + spec.Costs.ComparePage*p.mapped // run, then compare the end states
	switch {
	case err == nil && v.res.EndHash == p.end.Hash:
		v.kind = verdictVerified
	case err == nil:
		v.kind = verdictAdopt
	case epoch.IsDivergence(err):
		v.kind, v.err = verdictRerun, err
	default:
		v.kind, v.err = verdictFatal, err
	}
	if err == nil && spec.Profile != nil {
		v.prof = spec.Profile.Snapshot()
	}
	return v
}

// commit acts on one epoch's verdict, in epoch order: it places the
// verification on the pipeline, recovers forward from a divergence, and
// does what every committed epoch does. It is the one place an epoch joins
// the recording.
func (r *recorder) commit(p pending, v verdict) error {
	ep, b, tr := p.ep, p.end, r.tr
	commitCyc, tid := b.Cycle, int64(0)
	var pm placement
	if v.res != nil {
		r.stats.EpochSerialCycles += v.dur
		if r.reg != nil {
			r.reg.Add("record.loop_instrs", int64(v.res.LoopRetired), r.wl)
		}
		if v.kind == verdictFatal {
			return fmt.Errorf("core: epoch %d verification failed: %w", p.i, v.err)
		}
		// The run's timeslices are spliced at its pipeline span's start,
		// except when utilized (slot -1): that work is smeared across CPUs.
		pm = r.pl.schedule(p.start.Cycle, b.Cycle, v.dur)
		commitCyc, tid = pm.finish, slotTid(pm.slot)
		if tr.Enabled() {
			tr.Span("epoch.verify", pm.start, pm.finish-pm.start, r.pidRec, tid, []trace.Arg{
				trace.Int("epoch", p.i), trace.Int("slot", pm.slot), trace.Int("cycles", v.dur),
				trace.Bool("verified", v.kind == verdictVerified),
			})
			if pm.slot >= 0 {
				tr.Splice(v.epbuf, pm.start, r.pidRec, tid)
			}
		}
	}
	switch v.kind {
	case verdictCertified:
		// The logged thread-parallel execution IS the verified one; replay
		// free-runs it under the SyncOrder gate (replay.ErrCertViolated).
		ep.EndHash, ep.Certified = b.Hash, true
		r.stats.VerifySkipped++
		if tr.Enabled() {
			tr.Instant("epoch.verify.skipped", b.Cycle, r.pidRec, 0,
				[]trace.Arg{trace.Int("epoch", p.i), trace.String("cert", r.stats.CertStatus)})
		}
		if r.reg != nil {
			r.reg.Add("record.verify_skipped", 1, r.wl)
		}
	case verdictVerified, verdictAdopt:
		// An epoch-parallel run that met its targets is the execution the
		// log describes, and the one the guest profile stands for, whether
		// or not it ended in the thread-parallel state.
		ep.EndHash, ep.Schedule = v.res.EndHash, v.res.Schedule
		r.opt.Profile.Merge(v.prof) // a no-op unless profiling
	}
	if v.kind == verdictAdopt || v.kind == verdictRerun {
		var err error
		if ep, commitCyc, err = r.recover(p, v, pm); err != nil {
			return err
		}
		r.epochLen = r.opt.EpochCycles // divergence: back to short epochs
	} else {
		if tr.Enabled() {
			tr.Instant("epoch.commit", commitCyc, r.pidRec, tid,
				[]trace.Arg{trace.Int("epoch", p.i), trace.Int("lag", commitCyc-b.Cycle)})
		}
		if r.opt.EpochGrowth > 1 { // a clean epoch lets the next one grow
			r.epochLen = min(int64(float64(r.epochLen)*r.opt.EpochGrowth), r.opt.EpochCyclesMax)
		}
	}
	if v.res != nil {
		// An adopted boundary holds its own references to the pages it kept.
		v.res.M.Mem.Release()
	}
	r.rec.Epochs = append(r.rec.Epochs, ep)
	r.retire(p.start)
	if r.ctl != nil {
		r.steer(p.i, commitCyc-b.Cycle, pm.waited, commitCyc)
	}
	if reg, wl := r.reg, r.wl; reg != nil {
		reg.Observe("epoch.syscalls", int64(len(ep.Syscalls)), wl)
		reg.Observe("epoch.syncops", int64(len(ep.SyncOrder)), wl)
		reg.Observe("checkpoint.pages", p.mapped, wl)
		reg.Add("record.cow_pages", p.cow, wl)
		if v.res != nil {
			reg.Observe("epoch.cycles", v.dur, wl)
			reg.Set("epoch.duration_cycles", float64(v.dur), wl, trace.Label("epoch", p.i))
		}
	}
	return nil
}

// retire takes a committed epoch's start boundary out of the window: its
// world goes, and its checkpoint is kept or released.
func (r *recorder) retire(b *epoch.Boundary) {
	b.World = nil
	if k := r.opt.KeepBoundaries; k == 0 || k > 0 && b.Index%k == 0 {
		r.boundaries = append(r.boundaries, b)
	} else {
		b.CP.Release()
	}
}

// recover is forward recovery: the epoch-parallel state becomes the truth
// and the stale thread-parallel future is squashed. The two kinds of
// divergence differ only in where the epoch's log and end state come from.
// recover returns the epoch's log and its commit cycle.
func (r *recorder) recover(p pending, v verdict, pm placement) (*dplog.EpochLog, int64, error) {
	b, ep, tr := p.end, p.ep, r.tr
	info := DivergenceInfo{Epoch: p.i}
	var nb *epoch.Boundary // replaces b; its Cycle is set below
	var rrbuf *trace.Sink
	var rcycles int64
	if v.kind == verdictAdopt {
		// A data race made the epoch-parallel run reach a different — but
		// equally valid — state. Both runs consumed identical inputs
		// (injection verified that), so the world snapshot at the boundary
		// is still correct; only the architectural state is replaced.
		r.stats.HashRecoveries++
		info.Kind = "state"
		tp := b.CP.MemSnap.Restore()
		info.Pages = v.res.M.Mem.DiffPages(tp)
		tp.Release()
		nb = epoch.Snapshot(b.Index, 0, v.res.M, v.res.EndHash)
		nb.World = b.World
	} else {
		// The epoch-parallel run departed before the boundary (syscall or
		// sync-order mismatch). Roll the world back to the epoch start —
		// the simulator analogue of the paper's buffered-input redelivery —
		// and re-execute the epoch uniprocessor against the real OS. That
		// free run becomes the epoch's log and its end state becomes the
		// truth; its profile replaces the squashed attempt's.
		r.stats.RerunRecoveries++
		info.Kind, info.Reason = "input", v.err.Error()
		if tr.Enabled() {
			rrbuf = trace.NewSink()
		}
		var prof *profile.Profile
		var err error
		nb, ep, rcycles, prof, err = rerunEpoch(r.prog, p, r.opt, rrbuf)
		if err != nil {
			return nil, 0, fmt.Errorf("core: forward recovery of epoch %d failed: %w", p.i, err)
		}
		r.opt.Profile.Merge(prof)
		r.stats.EpochSerialCycles += rcycles
	}
	r.stats.Divergences++
	r.divInfo = append(r.divInfo, info)
	detect := pm.finish // the failed verification's end
	commitCyc := detect + rcycles
	r.stats.SquashedCycles += max(0, commitCyc-b.Cycle)
	nb.Cycle = commitCyc
	r.last = nb
	pid := r.pidRec
	switch {
	case !tr.Enabled():
	case v.kind == verdictAdopt:
		tr.Instant("divergence", detect, pid, 0,
			[]trace.Arg{trace.Int("epoch", p.i), trace.String("kind", "state"),
				trace.Int("pages", len(info.Pages))})
		tr.Instant("recovery.adopt", detect, pid, 0, []trace.Arg{trace.Int("epoch", p.i)})
		tr.Instant("epoch.commit", detect, pid, slotTid(pm.slot),
			[]trace.Arg{trace.Int("epoch", p.i), trace.Int("lag", detect-b.Cycle)})
		tr.Instant("checkpoint.create", detect, pid, 0,
			[]trace.Arg{trace.Int("epoch", nb.Index), trace.Int("pages", nb.MappedPages),
				trace.String("reason", "recovery.adopt")})
		tr.Instant("checkpoint.restore", detect, pid, 0,
			[]trace.Arg{trace.Int("epoch", nb.Index), trace.String("reason", "recovery.adopt")})
	default:
		tr.Instant("divergence", detect, pid, 0,
			[]trace.Arg{trace.Int("epoch", p.i), trace.String("kind", "input"),
				trace.String("reason", info.Reason)})
		tr.Instant("checkpoint.restore", detect, pid, 0,
			[]trace.Arg{trace.Int("epoch", p.i), trace.String("reason", "recovery.rerun")})
		tr.Span("recovery.rerun", detect, rcycles, pid, 0, []trace.Arg{trace.Int("epoch", p.i)})
		tr.Splice(rrbuf, detect, pid, 0)
		tr.Instant("checkpoint.create", commitCyc, pid, 0,
			[]trace.Arg{trace.Int("epoch", nb.Index), trace.Int("pages", nb.MappedPages),
				trace.String("reason", "recovery.rerun")})
		tr.Instant("epoch.commit", commitCyc, pid, 0,
			[]trace.Arg{trace.Int("epoch", p.i), trace.Int("lag", commitCyc-b.Cycle)})
		tr.Instant("checkpoint.restore", commitCyc, pid, 0,
			[]trace.Arg{trace.Int("epoch", nb.Index), trace.String("reason", "resume")})
	}
	// nb replaced b, and the squashed run past b is dropped.
	b.CP.Release()
	r.m.Mem.Release()
	r.m = resumeFrom(r.par, r.live, r.prog, nb, r.opt.Costs, r.opt.Seed, nb.Index+1)
	return ep, commitCyc, nil
}

// steer feeds the adaptive controller an epoch's commit lag and whether it
// waited for a slot. A decision parks or unparks slots before the next
// epoch is scheduled; an unparked core is only available from commitCyc.
func (r *recorder) steer(i int, lag int64, waited bool, commitCyc int64) {
	dec := r.ctl.observe(i, lag, waited, r.opt.EpochCycles)
	if dec == 0 {
		return
	}
	r.pl.setActive(r.ctl.active, commitCyc)
	if r.tr.Enabled() {
		name := "ctl.grow"
		if dec < 0 {
			name = "ctl.shrink"
		}
		r.tr.Instant(name, commitCyc, r.pidRec, 0, []trace.Arg{
			trace.Int("epoch", i), trace.Int("active", r.ctl.active), trace.Int("lag", lag),
		})
		r.tr.Counter("ctl.active", commitCyc, r.pidRec, int64(r.ctl.active))
	}
	if r.reg != nil {
		if dec > 0 {
			r.reg.Add("ctl.grows", 1, r.wl)
		} else {
			r.reg.Add("ctl.shrinks", 1, r.wl)
		}
		r.reg.Set("ctl.active_spares", float64(r.ctl.active), r.wl)
	}
}

// finish closes a recording whose guest is done and builds its Result.
func (r *recorder) finish() *Result {
	stats, reg, wl := &r.stats, r.reg, r.wl
	if r.liveProf != nil {
		r.opt.Profile.Merge(r.liveProf.Snapshot())
	}
	rec := r.rec
	last := r.last
	rec.FinalHash = last.Hash
	rec.OutputHash = last.World.OutputHash()
	last.World = nil
	r.boundaries = append(r.boundaries, last)

	stats.Epochs = len(rec.Epochs)
	stats.Retired = int64(sum(last.Targets()))
	stats.Slices = rec.Slices()
	stats.Syscalls = rec.SyscallCount()
	stats.SyncEvents = rec.SyncOps()
	stats.Signals = rec.SignalCount()
	stats.GuestFaults = r.m.FaultCount()
	r.m.Mem.Release()
	stats.ThreadParallelCycles = r.par.WallTime()
	stats.CompletionCycles = r.pl.completion(r.par.WallTime())
	var raw []byte
	profile.WithPhase(r.opt.Context, "commit", func() {
		raw, stats.ReplayBytes, stats.FullBytes, stats.FileBytes = rec.Encode()
	})
	stats.ActiveSpares = r.opt.SpareCPUs
	if r.ctl != nil {
		stats.ActiveSpares = r.ctl.active
		stats.SpareGrows = r.ctl.grows
		stats.SpareShrinks = r.ctl.shrinks
	}

	if r.tr.Enabled() {
		r.tr.Instant("record.done", stats.CompletionCycles, r.pidRec, 0, []trace.Arg{
			trace.Int("epochs", stats.Epochs), trace.Int("divergences", stats.Divergences),
			trace.Int("syscalls", stats.Syscalls), trace.Int("replay_bytes", stats.ReplayBytes),
		})
	}
	if reg != nil {
		reg.Add("record.runs", 1, wl)
		reg.Add("record.epochs", int64(stats.Epochs), wl)
		reg.Add("record.divergences", int64(stats.Divergences), wl)
		reg.Add("record.syscalls", int64(stats.Syscalls), wl)
		reg.Add("record.syncops", int64(stats.SyncEvents), wl)
		reg.Add("record.signals", int64(stats.Signals), wl)
		// How much of the thread-parallel run sched.Parallel carried in
		// windows, squashed stretches included; zero when a hook on this
		// machine watches plain instructions (signals, a live profile).
		reg.Add("record.window_instrs", r.par.WindowRetired, wl)
		reg.Add("record.windows", r.par.Windows, wl)
		reg.Add("record.window_aborts", r.par.WindowEventAborts, wl, trace.Label("reason", "event"))
		reg.Add("record.window_aborts", r.par.WindowConflictAborts, wl, trace.Label("reason", "conflict"))
		reg.Set("record.completion_cycles", float64(stats.CompletionCycles), wl)
		reg.Set("record.thread_parallel_cycles", float64(stats.ThreadParallelCycles), wl)
		reg.Set("record.replay_bytes", float64(stats.ReplayBytes), wl)
		reg.Set("record.file_bytes", float64(stats.FileBytes), wl)
		if r.ctl != nil {
			reg.Set("ctl.active_spares", float64(r.ctl.active), wl)
		}
	}

	out := &Result{
		Recording:   rec,
		Raw:         raw,
		Boundaries:  r.boundaries,
		Stats:       *stats,
		FinalHash:   rec.FinalHash,
		OutputHash:  rec.OutputHash,
		Divergences: r.divInfo,
		Certificate: r.cert,
	}
	if r.det != nil {
		out.Races = r.det.Races()
	}
	return out
}

// resumeFrom rebuilds the thread-parallel machine from an adopted boundary
// and restarts the scheduler on it at the boundary's clock, with a jitter
// stream of its own (the recording's seed salted by the boundary count);
// the live log moves to the new machine and a clone of the boundary's world.
func resumeFrom(par *sched.Parallel, live *epoch.LiveLog, prog *vm.Program, b *epoch.Boundary,
	costs *vm.CostModel, seed int64, salt int) *vm.Machine {
	m := b.CP.Restore(prog, nil, costs)
	live.Attach(m, b.World.Clone())
	par.Resume(m, seed+int64(salt)*7919, b.Cycle)
	return m
}

// rerunEpoch performs the re-execution half of forward recovery: a free
// uniprocessor run of p's worth of instructions from its start boundary,
// against a rolled-back world, logged by epoch.LiveLog.RunUni. It returns
// the boundary the run stopped at (Cycle unset), the epoch's replacement
// log, the run's cost and, when opt.Profile is set, its guest profile. A
// non-nil buf receives the run's trace with run-local timestamps.
func rerunEpoch(prog *vm.Program, p pending, opt Options, buf *trace.Sink) (
	*epoch.Boundary, *dplog.EpochLog, int64, *profile.Profile, error) {
	start := p.start
	w := start.World.Clone()
	m := start.CP.Restore(prog, nil, opt.Costs)
	var prof *profile.Profiler
	if opt.Profile != nil {
		prof = profile.New(prog)
		prof.Attach(m)
	}
	uni := sched.NewUni(m)
	uni.Quantum = opt.Quantum
	uni.Trace = buf
	uni.TotalBudget = max(sum(p.ep.Targets)-sum(start.Targets()), 1)
	relog, err := epoch.NewLiveLog(buf, 0).RunUni(uni, w)
	if err != nil && !m.Done() {
		return nil, nil, 0, nil, err
	}
	var snap *profile.Profile
	if prof != nil {
		snap = prof.Snapshot()
	}
	b := epoch.Capture(start.Index+1, 0, m, w)
	m.Mem.Release()
	relog.Index, relog.StartHash = start.Index, start.Hash
	relog.EndHash, relog.CommitHash = b.Hash, w.OutputHash()
	return b, relog, uni.Cycles, snap, nil
}

// sum adds up per-thread retired-instruction counts.
func sum(retired []uint64) uint64 {
	var n uint64
	for _, r := range retired {
		n += r
	}
	return n
}

// NativeResult reports a plain parallel execution with no recording.
type NativeResult struct {
	Cycles     int64
	Retired    int64
	FinalHash  uint64
	OutputHash uint64
	Faults     []string
}

// RunNative executes prog against world on cpus cores with no DoublePlay
// machinery — the baseline denominator for every overhead figure.
func RunNative(prog *vm.Program, world *simos.World, cpus int, seed int64, costs *vm.CostModel) (*NativeResult, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	m := vm.NewMachine(prog, simos.NewOS(world), costs)
	par := sched.NewParallel(m, cpus, seed)
	if err := par.Run(); err != nil {
		return nil, err
	}
	return &NativeResult{
		Cycles:     par.WallTime(),
		Retired:    par.Retired(),
		FinalHash:  m.StateHash(),
		OutputHash: world.OutputHash(),
		Faults:     m.Faults(),
	}, nil
}

// ErrTooManyEpochs is returned when MaxEpochs is exceeded.
var ErrTooManyEpochs = errors.New("core: too many epochs")

// ErrCanceled is returned when Options.Context ends a recording at an
// epoch boundary. errors.Is also matches the context's own error
// (context.Canceled or context.DeadlineExceeded), which is how callers
// distinguish an explicit cancel from a timeout.
var ErrCanceled = errors.New("core: recording canceled")
