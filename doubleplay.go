// Package doubleplay is the public façade of the DoublePlay reproduction:
// deterministic record/replay for multithreaded programs on a simulated
// multiprocessor, using uniparallelism (Veeraraghavan et al., ASPLOS 2011).
//
// # Model
//
// Guest programs are written against the asm builder ([NewProgram]) and run
// on a deterministic bytecode multiprocessor with threads, locks, barriers,
// atomics, and a simulated OS ([NewWorld]) providing files, sockets, a
// clock, and a PRNG.
//
// [Record] performs a uniparallel recording: a thread-parallel execution
// generates epoch checkpoints while an epoch-parallel execution — each
// epoch's threads timesliced on one CPU, epochs pipelined across spare
// cores — produces the actual replay log: per-epoch timeslice schedules
// plus syscall results. Data races may make the two executions disagree; a
// divergence is detected at the epoch boundary and repaired by forward
// recovery, and the resulting log always replays. Setting
// RecordOptions.Adaptive replaces the fixed spare-core count with a
// feedback controller that grows and shrinks the pipeline from the live
// commit-lag signal, within [AdaptiveMinSpares, AdaptiveMaxSpares];
// recordings stay deterministic and bit-identically replayable either way.
//
// [Replay] reproduces the recording: with zero [ReplayOptions] on one
// simulated CPU; given the recording's retained checkpoints (Boundaries)
// and a core count, all epochs concurrently on real host goroutines. The
// options also carry the trace sink and guest profile.
//
// # Quickstart
//
//	b := doubleplay.NewProgram("hello")
//	// ... build guest functions (see examples/quickstart) ...
//	prog := b.MustBuild()
//	res, err := doubleplay.Record(prog, doubleplay.NewWorld(1), doubleplay.RecordOptions{
//		Workers: 2, SpareCPUs: 2,
//	})
//	rep, err := doubleplay.Replay(ctx, prog, res.Recording, doubleplay.ReplayOptions{})
//
// The builtin benchmark suite mirroring the paper's evaluation is exposed
// through [Workloads] and [BuildWorkload].
package doubleplay

import (
	"context"
	"io"

	"doubleplay/internal/analyze"
	"doubleplay/internal/asm"
	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/profile"
	"doubleplay/internal/race"
	"doubleplay/internal/replay"
	"doubleplay/internal/sched"
	"doubleplay/internal/server"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// Program is an executable guest image.
type Program = vm.Program

// Builder constructs guest programs; see internal/asm for the full API.
type Builder = asm.Builder

// Func is a guest function under construction.
type Func = asm.Func

// Reg names a guest register.
type Reg = asm.Reg

// World is the simulated OS environment a guest runs against.
type World = simos.World

// Recording is a complete replay log.
type Recording = dplog.Recording

// RecordOptions configure a recording; see core.Options for field docs.
type RecordOptions = core.Options

// RecordResult is a completed recording with its retained checkpoints.
type RecordResult = core.Result

// RecordStats aggregates what the recorder measured.
type RecordStats = core.Stats

// NativeResult reports an unrecorded baseline execution.
type NativeResult = core.NativeResult

// ReplayResult reports a completed replay.
type ReplayResult = replay.Result

// Boundary is an epoch-start checkpoint retained for parallel replay.
type Boundary = epoch.Boundary

// CostModel prices simulated operations; DefaultCosts returns the
// calibration used by the evaluation.
type CostModel = vm.CostModel

// TraceSink collects timeline events from recordings and replays, in
// emission order; set RecordOptions.Trace (or ReplayOptions.Trace). A sink
// from [NewTraceSink] keeps its events for its WriteJSON method; one from
// [NewStreamSink] writes them as they happen. Either way the file is the
// same Chrome trace_event JSON, viewable at https://ui.perfetto.dev; see
// docs/OBSERVABILITY.md for the event schema. A nil *TraceSink is valid
// everywhere and disables tracing at zero cost.
type TraceSink = trace.Sink

// NewTraceSink returns an empty, enabled trace sink that keeps its events.
func NewTraceSink() *TraceSink { return trace.NewSink() }

// NewStreamSink returns a trace sink that writes each event to w as it is
// emitted and keeps none. Close it to finish the JSON document.
func NewStreamSink(w io.Writer) *TraceSink { return trace.NewStreamSink(w, 0) }

// GuestProfile is the deterministic guest cycle profile: retired cycles
// attributed to guest call stacks, gathered while recording
// (RecordOptions.Profile) or while replaying (ReplayOptions.Profile, under
// any replay plan). For the same recording the two are
// byte-identical — production profiles can be regenerated offline,
// exactly, from the log. Export with WritePprof (pprof profile.proto) or
// WriteFolded (flamegraph input); render with `dptrace flame`. See
// docs/OBSERVABILITY.md.
type GuestProfile = profile.Profile

// NewGuestProfile returns an empty guest profile to accumulate into.
func NewGuestProfile() *GuestProfile { return profile.NewProfile("") }

// ParseGuestProfile decodes a pprof-encoded guest profile (the bytes
// WritePprof produced, or any spec-conforming profile.proto message).
func ParseGuestProfile(data []byte) (*GuestProfile, error) { return profile.ParsePprof(data) }

// MetricsRegistry aggregates counters, gauges, and latency histograms
// across recordings; set RecordOptions.Metrics and print with Render.
type MetricsRegistry = trace.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return trace.NewRegistry() }

// WorkloadParams size a builtin benchmark instance.
type WorkloadParams = workloads.Params

// BuiltWorkload is a ready-to-run benchmark instance.
type BuiltWorkload = workloads.Built

// NewProgram starts building a guest program.
func NewProgram(name string) *Builder { return asm.NewBuilder(name) }

// InstallStdlib adds the guest runtime library (std.memcpy, std.memset,
// std.memcmp, std.sum, std.max, std.fill_lcg, std.checksum, std.bsearch)
// to a program under construction; call before Build.
func InstallStdlib(b *Builder) { asm.InstallStdlib(b) }

// NewWorld returns an empty simulated environment with the given seed.
func NewWorld(seed int64) *World { return simos.NewWorld(seed) }

// DefaultCosts returns the evaluation's cost model.
func DefaultCosts() *CostModel { return vm.DefaultCosts() }

// Record performs a uniparallel recording of prog against world. The world
// is consumed; build a fresh one per run.
func Record(prog *Program, world *World, opt RecordOptions) (*RecordResult, error) {
	return core.Record(prog, world, opt)
}

// RunNative executes prog with no recording — the overhead baseline.
func RunNative(prog *Program, world *World, cpus int, seed int64) (*NativeResult, error) {
	return core.RunNative(prog, world, cpus, seed, nil)
}

// ReplayOptions select how [Replay] replays a recording: which retained
// checkpoints to start from and on how many cores, the cost model, and
// the optional trace sink and guest profile. See replay.Options for field
// docs; the zero value is plain sequential replay.
type ReplayOptions = replay.Options

// Replay reproduces a recording under the plan opt describes, verifying
// every epoch boundary hash and the final hash. With no Boundaries it
// replays epoch by epoch on one simulated CPU from program reset; with a
// checkpoint set it replays the segments they anchor concurrently across
// opt.CPUs host workers — every retained boundary is epoch-parallel
// replay, a thinned set (RecordResult.ThinBoundaries, [ThinCheckpoints])
// trades parallelism for checkpoint memory. An enabled opt.Trace receives the replay's
// epochs and timeslices as "replay.epoch" spans; a non-nil opt.Profile
// gathers the replayed execution's guest profile, byte-identical under
// every plan. The context is checked at epoch boundaries.
func Replay(ctx context.Context, prog *Program, rec *Recording, opt ReplayOptions) (*ReplayResult, error) {
	return replay.Run(ctx, prog, replay.FromRecording(rec), opt)
}

// SaveRecording writes a recording in the binary log format.
func SaveRecording(w io.Writer, rec *Recording) error { return dplog.Marshal(w, rec) }

// LoadRecording reads r to its end and decodes the recording
// SaveRecording wrote there. Only the current format (docs/FORMAT.md)
// loads; a retired v4/v5 file fails with an error wrapping
// dplog.ErrBadVersion and goes through UpgradeRecording first.
func LoadRecording(r io.Reader) (*Recording, error) { return dplog.Unmarshal(r) }

// LogReader is a random-access view of a stored recording: the v6 log
// format keeps one self-contained section per epoch behind a trailing
// offset index, so a reader can seek straight to epoch N without
// decoding — or even touching — the epochs before it. Readers are safe
// for concurrent use. See docs/FORMAT.md for the byte layout.
type LogReader = dplog.Reader

// LogHeader is a stored recording's run metadata.
type LogHeader = dplog.Header

// LogSection describes one epoch section of an opened log: its epoch id,
// byte offset, stored and uncompressed sizes, flags, and checksum.
type LogSection = dplog.SectionInfo

// OpenRecording opens an encoded recording for random access without
// decoding its epochs. A damaged file opens Recovered, holding the
// sections that survive; a retired v4/v5 file does not open (see
// UpgradeRecording).
func OpenRecording(data []byte) (*LogReader, error) { return dplog.OpenReaderBytes(data) }

// OpenRecordingAt is OpenRecording over an io.ReaderAt (e.g. an *os.File),
// reading only the header, the index, and the sections actually seeked.
func OpenRecordingAt(r io.ReaderAt, size int64) (*LogReader, error) {
	return dplog.OpenReader(r, size)
}

// UpgradeRecording migrates an encoded recording to the current sectioned
// format: retired v4/v5 logs — which nothing else reads any more — are
// re-encoded, and v6 logs with a damaged index are repaired from their
// recoverable sections. It returns the
// (possibly unchanged) bytes and whether a rewrite happened.
func UpgradeRecording(data []byte) ([]byte, bool, error) { return dplog.Upgrade(data) }

// Workloads lists the builtin benchmark names in presentation order.
func Workloads() []string {
	all := workloads.All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// WorkloadInfo describes a builtin benchmark.
type WorkloadInfo struct {
	Name string
	Kind string
	Desc string
	Racy bool
}

// DescribeWorkload returns metadata for a builtin benchmark, or nil.
func DescribeWorkload(name string) *WorkloadInfo {
	w := workloads.Get(name)
	if w == nil {
		return nil
	}
	return &WorkloadInfo{Name: w.Name, Kind: w.Kind, Desc: w.Desc, Racy: w.Racy}
}

// BuildWorkload instantiates a builtin benchmark, returning its program and
// a fresh world. It returns nil for unknown names.
func BuildWorkload(name string, p WorkloadParams) *BuiltWorkload {
	w := workloads.Get(name)
	if w == nil {
		return nil
	}
	return w.Build(p)
}

// VetReport is the result of statically analyzing a guest program.
type VetReport = analyze.Findings

// VetFinding is one static-analysis finding.
type VetFinding = analyze.Finding

// Vet statically screens a guest program without executing it: CFG and
// dataflow checks (branch targets, lock balance, uninitialized and dead
// registers) plus a lockset race screen whose candidates cover every
// address the dynamic detector can implicate. Use it before Record to
// know which programs can diverge, and FindRaces afterwards to confirm
// which candidates are real. See cmd/dpvet for the CLI.
func Vet(prog *Program) *VetReport { return analyze.Run(prog) }

// Certificate is the static race-freedom certificate analyze computes
// alongside its findings: a sound classification of the whole program
// (and each function) as proven race-free, possibly racy, or beyond the
// analysis. See docs/ANALYSIS.md for its semantics.
type Certificate = analyze.Certificate

// CertStatus is one certificate classification.
type CertStatus = analyze.CertStatus

// Certificate classifications. Only CertRaceFree licenses skipping the
// epoch-parallel verification pass.
const (
	CertRaceFree     = analyze.CertRaceFree
	CertPossiblyRacy = analyze.CertPossiblyRacy
	CertIncomplete   = analyze.CertIncomplete
)

// Certify statically analyzes a guest program and returns its
// race-freedom certificate — the decision input Record consults under
// VerifyCertified.
func Certify(prog *Program) *Certificate { return analyze.Run(prog).Cert }

// VerifyPolicy selects how Record validates epochs; see RecordOptions.
type VerifyPolicy = core.VerifyPolicy

// Verification policies. VerifyAlways (the zero value) runs the
// epoch-parallel pass for every epoch; VerifyCertified commits epochs
// directly from the logged thread-parallel execution when Certify proves
// the program race-free, falling back to VerifyAlways otherwise.
const (
	VerifyAlways    = core.VerifyAlways
	VerifyCertified = core.VerifyCertified
)

// ParseVerifyPolicy maps "always"/"certified" (or "") to a policy.
func ParseVerifyPolicy(s string) (VerifyPolicy, error) { return core.ParseVerifyPolicy(s) }

// ErrCertViolated reports a certified epoch whose replay did not
// reproduce the recorded state — a soundness bug in the certificate, not
// an ordinary divergence.
var ErrCertViolated = replay.ErrCertViolated

// RecordContext is Record with cooperative cancellation: the recording
// stops at the first epoch boundary after ctx is done and returns an
// error wrapping ctx.Err(). Simulated state is never left half-committed,
// so cancellation latency is bounded by one epoch.
func RecordContext(ctx context.Context, prog *Program, world *World, opt RecordOptions) (*RecordResult, error) {
	opt.Context = ctx
	return core.Record(prog, world, opt)
}

// RecordingCheckpoints rebuilds the epoch-start checkpoints of a stored
// recording by replaying it once sequentially — recordings persist only
// the logs, and parallel replay needs a starting state per epoch. The
// returned boundaries are [ReplayOptions].Boundaries, whole or thinned
// with [ThinCheckpoints].
func RecordingCheckpoints(ctx context.Context, prog *Program, rec *Recording) ([]*Boundary, error) {
	return replay.CheckpointsFrom(ctx, prog, replay.FromRecording(rec), nil)
}

// ThinCheckpoints keeps every stride-th boundary (always including the
// first and last), the sparse set segment-parallel replay starts from.
func ThinCheckpoints(bs []*Boundary, stride int) []*Boundary { return replay.Thin(bs, stride) }

// JobServer is the record/replay daemon behind `doubleplay serve`: a
// bounded job queue, a worker pool, a content-addressed artifact store,
// and a JSON HTTP API (see docs/SERVER.md). Construct with
// [NewJobServer], launch the pool with Start, mount Handler on an HTTP
// listener, and drain with Shutdown.
type JobServer = server.Server

// JobServerConfig tunes a [JobServer].
type JobServerConfig = server.Config

// JobSpec is a job submission — the JSON body of POST /jobs.
type JobSpec = server.Spec

// JobInfo is the API view of a job's lifecycle and result.
type JobInfo = server.Info

// NewJobServer opens the artifact store and builds a job daemon.
func NewJobServer(cfg JobServerConfig) (*JobServer, error) { return server.New(cfg) }

// RaceReport is one detected data race.
type RaceReport = race.Report

// FindRaces executes prog uniprocessor under a vector-clock happens-before
// detector and returns the racy addresses found. This is the debugging step
// DoublePlay's replay enables: once an execution replays deterministically,
// the race that caused a divergence can be located offline.
func FindRaces(prog *Program, world *World) ([]RaceReport, error) {
	det := race.NewDetector(0)
	m := vm.NewMachine(prog, simos.NewOS(world), nil)
	m.Hooks.OnSync = det.OnSync
	m.Hooks.OnMemAccess = det.OnMemAccess
	uni := sched.NewUni(m)
	if err := uni.Run(); err != nil {
		return nil, err
	}
	return det.Races(), nil
}
