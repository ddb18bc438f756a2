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
	// Defaults: min 1; max SpareCPUs (or min, when larger).
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
		if o.Workers > 0 {
			o.RecordCPUs = o.Workers + 1
		} else {
			o.RecordCPUs = 2
		}
	}
	if o.EpochCycles <= 0 {
		o.EpochCycles = DefaultEpochCycles
	}
	if o.EpochGrowth < 1 {
		o.EpochGrowth = 1
	}
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
		if o.AdaptiveMaxSpares < o.AdaptiveMinSpares {
			o.AdaptiveMaxSpares = o.AdaptiveMinSpares
		}
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
	GuestFaults int

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
	Recording  *dplog.Recording
	Boundaries []*epoch.Boundary // epoch-start checkpoints, for parallel replay
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

// ReleaseCheckpoints drops the retained epoch-start checkpoints' hold on
// shared memory pages. Call it when parallel replay is no longer needed;
// the Recording itself remains valid for sequential replay.
func (r *Result) ReleaseCheckpoints() {
	for _, b := range r.Boundaries {
		b.CP.Release()
	}
	r.Boundaries = nil
}

// ThinBoundaries returns every stride-th boundary (always including the
// first and last), for memory-bounded segment-parallel replay: hand them
// to replay.Run as Options.Boundaries. The returned boundaries keep their
// epoch indices.
func (r *Result) ThinBoundaries(stride int) []*epoch.Boundary {
	if stride <= 1 {
		return r.Boundaries
	}
	var out []*epoch.Boundary
	for i, b := range r.Boundaries {
		if i%stride == 0 || i == len(r.Boundaries)-1 {
			out = append(out, b)
		}
	}
	return out
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
// is mutated; pass a freshly built one.
func Record(prog *vm.Program, world *simos.World, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	costs := opt.Costs

	// Normalize the recorder so every tr.Enabled() below is safe: a nil
	// interface becomes the canonical disabled sink (a typed-nil *Sink,
	// whose methods are nil-safe no-ops).
	tr := opt.Trace
	if tr == nil {
		tr = (*trace.Sink)(nil)
	}
	reg := opt.Metrics
	var wl string // workload label for metrics
	if reg != nil {
		wl = trace.Label("workload", prog.Name)
	}
	// Static race-freedom certification. Under VerifyCertified a race-free
	// certificate lets every epoch commit directly from the logged
	// thread-parallel execution; any other status — or an option that needs
	// the epoch-parallel pass regardless — falls back to full verification
	// with the reason recorded in Stats.VerifyFallback.
	var cert *analyze.Certificate
	certified := false
	fallback := ""
	if opt.VerifyPolicy == VerifyCertified {
		cert = analyze.Run(prog).Cert
		switch {
		case opt.DetectRaces:
			fallback = "race detection requires the epoch-parallel pass"
		case opt.DisableSyncEnforcement:
			fallback = "sync-order enforcement disabled; the certificate assumes the gate"
		case !cert.RaceFree():
			fallback = fmt.Sprintf("certificate is %s, not race-free", cert.Status)
		default:
			certified = true
		}
	}
	// The adaptive controller replaces the fixed slot count: SpareCPUs
	// becomes the starting point, and the pipeline gets MaxSpares slots of
	// which only the controller's active count take work. A certified run
	// has no verification pipeline to pace, so the controller stays off.
	var ctl *Controller
	slots, active := opt.SpareCPUs, opt.SpareCPUs
	if opt.Adaptive && !certified {
		ctl = NewController(opt.AdaptiveMinSpares, opt.AdaptiveMaxSpares, opt.SpareCPUs)
		slots, active = opt.AdaptiveMaxSpares, ctl.Active()
	}
	var pidRec, pidGuest int64
	if tr.Enabled() {
		pidRec = tr.AllocPid("record " + prog.Name)
		pidGuest = tr.AllocPid("guest " + prog.Name + " (thread-parallel)")
		tr.NameThread(pidRec, 0, "epochs + recovery")
		if slots > 0 {
			for s := 0; s < slots; s++ {
				tr.NameThread(pidRec, int64(1+s), fmt.Sprintf("pipeline slot %d", s))
			}
		} else {
			tr.NameThread(pidRec, 1, "epoch work (shared cores)")
		}
		if ctl != nil {
			tr.Instant("ctl.enable", 0, pidRec, 0, map[string]any{
				"min": ctl.Min, "max": ctl.Max, "active": ctl.Active(),
			})
			tr.Counter("ctl.active", 0, pidRec, int64(ctl.Active()))
		}
		if cert != nil {
			tr.Instant("certify", 0, pidRec, 0, map[string]any{
				"status": string(cert.Status), "skip": certified, "fallback": fallback,
			})
		}
	}

	// The thread-parallel machine is the one that logs: syscall results,
	// sync order and signal positions come from its live world.
	live := epoch.NewLiveLog(tr, pidGuest)
	m := vm.NewMachine(prog, nil, costs)
	live.Attach(m, world)
	// Certified recordings log the thread-parallel execution itself, so the
	// guest profile is gathered there; otherwise it comes from the
	// epoch-parallel runs below — the execution the log actually describes
	// and replay reproduces.
	var liveProf *profile.Profiler
	if opt.Profile != nil && certified {
		liveProf = profile.New(prog)
		liveProf.Attach(m)
	}
	par := sched.NewParallel(m, opt.RecordCPUs, opt.Seed)
	par.Trace = tr
	par.TracePid = pidGuest

	boundaries := []*epoch.Boundary{epoch.Capture(0, 0, m, world)}
	if tr.Enabled() {
		tr.Instant("checkpoint.create", 0, pidRec, 0,
			map[string]any{"epoch": 0, "pages": boundaries[0].MappedPages})
	}
	rec := &dplog.Recording{Program: prog.Name, Workers: opt.Workers, Seed: opt.Seed, Quantum: opt.Quantum}
	pl := newPipeline(slots, active, opt.RecordCPUs)
	var stats Stats
	if cert != nil {
		stats.CertStatus = string(cert.Status)
		stats.VerifyFallback = fallback
	}
	var det *race.Detector
	if opt.DetectRaces {
		det = race.NewDetector(0)
	}
	var divInfo []DivergenceInfo

	epochLen := opt.EpochCycles
	for !m.Done() {
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				return nil, fmt.Errorf("%w after %d epochs: %w", ErrCanceled, len(rec.Epochs), err)
			}
		}
		if len(boundaries) > opt.MaxEpochs {
			return nil, fmt.Errorf("%w: exceeded %d; runaway guest?", ErrTooManyEpochs, opt.MaxEpochs)
		}
		// Thread-parallel execution of one epoch.
		next := boundaries[len(boundaries)-1].Cycle + epochLen
		var runErr error
		profile.WithPhase(opt.Context, "record", func() { runErr = par.RunUntil(next) })
		if runErr != nil {
			return nil, fmt.Errorf("core: thread-parallel run failed: %w", runErr)
		}

		// Charge the record-time costs this epoch accrued: log appends,
		// copy-on-write traffic behind the last checkpoint, and the
		// checkpoint we are about to take.
		ep := live.Take()
		cow := m.Mem.Stats().PagesCopied
		m.Mem.ResetStats()
		mapped := int64(m.Mem.PageCount())
		par.AddCost(int64(len(ep.SyncOrder)+len(ep.Signals))*costs.SyncLogEvent +
			sysLogCost(ep.Syscalls, costs) +
			costs.CheckpointBase + costs.CheckpointPage*mapped +
			cow*costs.CowCopyPage)
		stats.CheckpointPages += mapped
		stats.CowPages += cow

		b := epoch.Capture(len(boundaries), par.Now(), m, live.World())
		boundaries = append(boundaries, b)
		i := len(boundaries) - 2
		start := boundaries[i]

		ep.Index, ep.Targets, ep.StartHash = i, b.Targets(), start.Hash
		ep.CommitHash = b.World.OutputHash()
		stats.SyncEvents += len(ep.SyncOrder)
		stats.Syscalls += len(ep.Syscalls)
		stats.Signals += len(ep.Signals)

		if tr.Enabled() {
			// The thread-parallel execution of epoch i, and the log-append
			// running totals at its boundary. The epoch span count always
			// equals Stats.Epochs: every loop iteration logs exactly one.
			tr.Span("epoch", start.Cycle, b.Cycle-start.Cycle, pidRec, 0, map[string]any{
				"epoch": i, "syscalls": len(ep.Syscalls), "syncops": len(ep.SyncOrder),
				"signals": len(ep.Signals),
			})
			tr.Instant("checkpoint.create", b.Cycle, pidRec, 0,
				map[string]any{"epoch": i + 1, "pages": mapped, "cow_pages": cow})
			tr.Counter("log.syscalls", b.Cycle, pidRec, int64(stats.Syscalls))
			tr.Counter("log.syncops", b.Cycle, pidRec, int64(stats.SyncEvents))
			tr.Counter("log.signals", b.Cycle, pidRec, int64(stats.Signals))
			tr.Counter("mem.pages", b.Cycle, pidRec, mapped)
		}

		if certified {
			// Certified commit: the certificate proves every
			// sync-order-respecting execution reaches this boundary state, so
			// the logged thread-parallel execution IS the verified execution.
			// No epoch-parallel pass, no comparison, no pipeline occupancy —
			// the epoch commits at its own boundary, and replay free-runs it
			// under the SyncOrder gate (any mismatch there is a soundness
			// bug, surfaced as replay.ErrCertViolated, never a divergence).
			ep.EndHash = b.Hash
			ep.Certified = true
			rec.Epochs = append(rec.Epochs, ep)
			stats.VerifySkipped++
			if tr.Enabled() {
				tr.Instant("epoch.verify.skipped", b.Cycle, pidRec, 0,
					map[string]any{"epoch": i, "cert": string(cert.Status)})
				tr.Instant("epoch.commit", b.Cycle, pidRec, 0,
					map[string]any{"epoch": i, "lag": int64(0)})
			}
			if reg != nil {
				reg.Add("record.verify_skipped", 1, wl)
				observeEpoch(reg, wl, ep, mapped, cow)
			}
			epochLen = opt.grown(epochLen)
			continue
		}

		// Epoch-parallel execution of epoch i, constrained and injected.
		// With tracing on, its timeslices accumulate in a buffer with
		// epoch-local timestamps, spliced below once the pipeline places
		// the epoch in simulated time.
		var epbuf *trace.Sink
		if tr.Enabled() {
			epbuf = trace.NewSink()
		}
		spec := epoch.RunSpec{
			Prog:               prog,
			Start:              start,
			Targets:            ep.Targets,
			SyncOrder:          ep.SyncOrder,
			Syscalls:           ep.Syscalls,
			Signals:            ep.Signals,
			Quantum:            opt.Quantum,
			Costs:              costs,
			DisableEnforcement: opt.DisableSyncEnforcement,
			Trace:              epbuf,
		}
		if det != nil {
			spec.OnSync = det.OnSync
			spec.OnMemAccess = det.OnMemAccess
		}
		var epProf *profile.Profiler
		if opt.Profile != nil {
			epProf = profile.New(prog)
			spec.Profile = epProf
		}
		var res *epoch.RunResult
		var err error
		profile.WithPhase(opt.Context, "verify", func() { res, err = epoch.Run(spec) })
		dur := res.Cycles + costs.ComparePage*mapped // run, then compare the end states
		stats.EpochSerialCycles += dur
		if reg != nil {
			reg.Add("record.loop_instrs", int64(res.LoopRetired), wl)
		}

		if err == nil {
			// An epoch-parallel run that met its targets is the execution
			// the log describes, and the one the guest profile stands for,
			// whether or not it ended in the thread-parallel state.
			ep.EndHash = res.EndHash
			ep.Schedule = res.Schedule
			if epProf != nil {
				opt.Profile.Merge(epProf.Snapshot())
			}
		}

		// pm and commitCyc survive the switch for the adaptive controller:
		// every path schedules the epoch through the pipeline and commits
		// it at some cycle, and the controller samples that commit's lag.
		var pm placement
		var commitCyc int64
		switch {
		case err == nil && res.EndHash == b.Hash:
			// Verified: the epoch-parallel execution reached the same state.
			pm = pl.schedule(start.Cycle, b.Cycle, dur)
			commitCyc = pm.finish
			traceVerify(tr, pidRec, pm, epbuf, i, dur, true)
			if tr.Enabled() {
				tr.Instant("epoch.commit", pm.finish, pidRec, slotTid(pm.slot),
					map[string]any{"epoch": i, "lag": pm.finish - b.Cycle})
			}
			epochLen = opt.grown(epochLen)

		case err == nil || epoch.IsDivergence(err):
			// Forward recovery. The two kinds of divergence differ in where
			// the epoch's log and end state come from; what follows — place
			// the failed verification on the pipeline, squash the
			// thread-parallel work past the boundary, and resume it from the
			// state the log actually describes — is the same.
			adopt := err == nil
			info := DivergenceInfo{Epoch: i}
			var nb *epoch.Boundary // replaces b; its Cycle is set below
			var rrbuf *trace.Sink
			var rcycles int64
			if adopt {
				// A data race made the epoch-parallel run reach a different —
				// but equally valid — state. Both runs consumed identical
				// inputs (injection verified that), so the world snapshot at
				// the boundary is still correct; only the architectural state
				// is replaced.
				stats.HashRecoveries++
				info.Kind = "state"
				info.Pages = res.M.Mem.DiffPages(b.CP.MemSnap.Restore())
				nb = epoch.Snapshot(b.Index, 0, res.M, res.EndHash)
				nb.World = b.World
			} else {
				// The epoch-parallel run departed before the boundary (syscall
				// or sync-order mismatch). Roll the world back to the epoch
				// start — the simulator analogue of the paper's buffered-input
				// redelivery — and re-execute the epoch uniprocessor against
				// the real OS. That free run becomes the epoch's log and its
				// end state becomes the truth.
				stats.RerunRecoveries++
				info.Kind = "input"
				info.Reason = err.Error()
				if tr.Enabled() {
					rrbuf = trace.NewSink()
				}
				quota := sum(ep.Targets) - sum(start.Targets())
				var rerr error
				nb, ep, rcycles, rerr = rerunEpoch(prog, start, quota, costs, opt, rrbuf)
				if rerr != nil {
					return nil, fmt.Errorf("core: forward recovery of epoch %d failed: %w", i, rerr)
				}
				stats.EpochSerialCycles += rcycles
			}
			stats.Divergences++
			divInfo = append(divInfo, info)
			pm = pl.schedule(start.Cycle, b.Cycle, dur)
			detect := pm.finish // the failed verification's end
			commitCyc = detect + rcycles
			stats.SquashedCycles += max(0, commitCyc-b.Cycle)
			nb.Cycle = commitCyc
			boundaries[len(boundaries)-1] = nb
			traceVerify(tr, pidRec, pm, epbuf, i, dur, false)
			switch {
			case !tr.Enabled():
			case adopt:
				tr.Instant("divergence", detect, pidRec, 0,
					map[string]any{"epoch": i, "kind": "state", "pages": len(info.Pages)})
				tr.Instant("recovery.adopt", detect, pidRec, 0, map[string]any{"epoch": i})
				tr.Instant("epoch.commit", detect, pidRec, slotTid(pm.slot),
					map[string]any{"epoch": i, "lag": detect - b.Cycle})
				tr.Instant("checkpoint.create", detect, pidRec, 0,
					map[string]any{"epoch": nb.Index, "pages": nb.MappedPages, "reason": "recovery.adopt"})
				tr.Instant("checkpoint.restore", detect, pidRec, 0,
					map[string]any{"epoch": nb.Index, "reason": "recovery.adopt"})
			default:
				tr.Instant("divergence", detect, pidRec, 0,
					map[string]any{"epoch": i, "kind": "input", "reason": info.Reason})
				tr.Instant("checkpoint.restore", detect, pidRec, 0,
					map[string]any{"epoch": i, "reason": "recovery.rerun"})
				tr.Span("recovery.rerun", detect, rcycles, pidRec, 0, map[string]any{"epoch": i})
				tr.Splice(rrbuf, detect, pidRec, 0)
				tr.Instant("checkpoint.create", commitCyc, pidRec, 0,
					map[string]any{"epoch": nb.Index, "pages": nb.MappedPages, "reason": "recovery.rerun"})
				tr.Instant("epoch.commit", commitCyc, pidRec, 0,
					map[string]any{"epoch": i, "lag": commitCyc - b.Cycle})
				tr.Instant("checkpoint.restore", commitCyc, pidRec, 0,
					map[string]any{"epoch": nb.Index, "reason": "resume"})
			}
			m = resumeFrom(par, live, prog, nb, costs, opt.Seed, len(boundaries))
			epochLen = opt.EpochCycles // divergence: back to short epochs

		default:
			return nil, fmt.Errorf("core: epoch %d verification failed: %w", i, err)
		}
		rec.Epochs = append(rec.Epochs, ep)

		if ctl != nil {
			// One sample per epoch boundary: the commit lag the pipeline
			// model assigned this epoch, and whether it waited for a slot.
			// A decision parks or unparks slots before the next epoch is
			// scheduled; the unparked core is only available from here on.
			lag := commitCyc - b.Cycle
			if dec := ctl.Observe(i, lag, pm.waited, opt.EpochCycles); dec != 0 {
				pl.setActive(ctl.Active(), commitCyc)
				if tr.Enabled() {
					name := "ctl.grow"
					if dec < 0 {
						name = "ctl.shrink"
					}
					tr.Instant(name, commitCyc, pidRec, 0, map[string]any{
						"epoch": i, "active": ctl.Active(), "lag": lag,
					})
					tr.Counter("ctl.active", commitCyc, pidRec, int64(ctl.Active()))
				}
				if reg != nil {
					if dec > 0 {
						reg.Add("ctl.grows", 1, wl)
					} else {
						reg.Add("ctl.shrinks", 1, wl)
					}
					reg.Set("ctl.active_spares", float64(ctl.Active()), wl)
				}
			}
		}

		if reg != nil {
			reg.Observe("epoch.cycles", dur, wl)
			observeEpoch(reg, wl, ep, mapped, cow)
			reg.Set("epoch.duration_cycles", float64(dur), wl, trace.Label("epoch", i))
		}
	}

	if liveProf != nil {
		opt.Profile.Merge(liveProf.Snapshot())
	}
	last := boundaries[len(boundaries)-1]
	rec.FinalHash = last.Hash
	rec.OutputHash = last.World.OutputHash()

	stats.Epochs = len(rec.Epochs)
	stats.Retired = int64(sum(last.Targets()))
	stats.Slices = rec.Slices()
	stats.Syscalls = rec.SyscallCount()
	stats.SyncEvents = rec.SyncOps()
	stats.Signals = rec.SignalCount()
	stats.GuestFaults = m.FaultCount()
	stats.ThreadParallelCycles = par.WallTime()
	stats.CompletionCycles = pl.completion(par.WallTime())
	profile.WithPhase(opt.Context, "commit", func() {
		stats.ReplayBytes = rec.ReplaySize()
		stats.FullBytes = rec.FullSize()
		stats.FileBytes = len(dplog.MarshalBytes(rec))
	})
	stats.ActiveSpares = opt.SpareCPUs
	if ctl != nil {
		stats.ActiveSpares = ctl.Active()
		stats.SpareGrows = ctl.Grows()
		stats.SpareShrinks = ctl.Shrinks()
	}

	if tr.Enabled() {
		tr.Instant("record.done", stats.CompletionCycles, pidRec, 0, map[string]any{
			"epochs": stats.Epochs, "divergences": stats.Divergences,
			"syscalls": stats.Syscalls, "replay_bytes": stats.ReplayBytes,
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
		reg.Add("record.window_instrs", par.WindowRetired, wl)
		reg.Add("record.windows", par.Windows, wl)
		reg.Add("record.window_aborts", par.WindowEventAborts, wl, trace.Label("reason", "event"))
		reg.Add("record.window_aborts", par.WindowConflictAborts, wl, trace.Label("reason", "conflict"))
		reg.Set("record.completion_cycles", float64(stats.CompletionCycles), wl)
		reg.Set("record.thread_parallel_cycles", float64(stats.ThreadParallelCycles), wl)
		reg.Set("record.replay_bytes", float64(stats.ReplayBytes), wl)
		reg.Set("record.file_bytes", float64(stats.FileBytes), wl)
		if ctl != nil {
			reg.Set("ctl.active_spares", float64(ctl.Active()), wl)
		}
	}

	out := &Result{
		Recording:   rec,
		Boundaries:  boundaries,
		Stats:       stats,
		FinalHash:   rec.FinalHash,
		OutputHash:  rec.OutputHash,
		Divergences: divInfo,
		Certificate: cert,
	}
	if det != nil {
		out.Races = det.Races()
	}
	return out, nil
}

// traceVerify emits one epoch's "epoch.verify" pipeline span and splices
// the epoch-parallel run's buffered timeslices at the span's start. The
// splice is skipped in the utilized configuration (slot -1), whose epoch
// work is smeared across the record CPUs rather than run contiguously.
func traceVerify(tr trace.Recorder, pidRec int64, pm placement, epbuf *trace.Sink, ep int, dur int64, verified bool) {
	if !trace.Enabled(tr) {
		return
	}
	tid := slotTid(pm.slot)
	tr.Span("epoch.verify", pm.start, pm.finish-pm.start, pidRec, tid, map[string]any{
		"epoch": ep, "slot": pm.slot, "cycles": dur, "verified": verified,
	})
	if pm.slot >= 0 {
		tr.Splice(epbuf, pm.start, pidRec, tid)
	}
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
// uniprocessor run of roughly one epoch's worth of instructions from the
// boundary, against a rolled-back world, logged by the same
// epoch.LiveLog.RunUni a uniprocessor recorder is. It returns the boundary
// the run stopped at (Cycle unset), the epoch's replacement log and the
// run's cost. When buf is non-nil the re-execution's timeslices and log
// appends are traced into it with run-local timestamps; the caller splices
// them under the "recovery.rerun" span.
func rerunEpoch(prog *vm.Program, start *epoch.Boundary, quota uint64,
	costs *vm.CostModel, opt Options, buf *trace.Sink) (*epoch.Boundary, *dplog.EpochLog, int64, error) {
	w := start.World.Clone()
	m := start.CP.Restore(prog, nil, costs)
	// The re-execution replaces the squashed epoch in the log, so it is the
	// run the guest profile must describe (the squashed epoch-parallel
	// attempt's profile is discarded by the caller).
	var prof *profile.Profiler
	if opt.Profile != nil {
		prof = profile.New(prog)
		prof.Attach(m)
	}
	uni := sched.NewUni(m)
	uni.Quantum = opt.Quantum
	uni.Trace = buf
	uni.TotalBudget = max(quota, 1)
	relog, err := epoch.NewLiveLog(buf, 0).RunUni(uni, w)
	if err != nil && !m.Done() {
		return nil, nil, 0, err
	}
	if prof != nil {
		opt.Profile.Merge(prof.Snapshot())
	}
	b := epoch.Capture(start.Index+1, 0, m, w)
	relog.Index, relog.StartHash = start.Index, start.Hash
	relog.EndHash, relog.CommitHash = b.Hash, w.OutputHash()
	return b, relog, uni.Cycles, nil
}

// sum adds up per-thread retired-instruction counts.
func sum(retired []uint64) uint64 {
	var n uint64
	for _, r := range retired {
		n += r
	}
	return n
}

// grown is the epoch length after a clean epoch of length epochLen.
func (o Options) grown(epochLen int64) int64 {
	if o.EpochGrowth <= 1 {
		return epochLen
	}
	return min(int64(float64(epochLen)*o.EpochGrowth), o.EpochCyclesMax)
}

// observeEpoch feeds the per-epoch series every committed epoch reports,
// verified or not.
func observeEpoch(reg *trace.Registry, wl string, ep *dplog.EpochLog, mapped, cow int64) {
	reg.Observe("epoch.syscalls", int64(len(ep.Syscalls)), wl)
	reg.Observe("epoch.syncops", int64(len(ep.SyncOrder)), wl)
	reg.Observe("checkpoint.pages", mapped, wl)
	reg.Add("record.cow_pages", cow, wl)
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
