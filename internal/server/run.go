package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"doubleplay/internal/core"
	"doubleplay/internal/debug"
	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// jobTrace is the per-job streamed trace: every job narrates its timeline
// into trace.json in its artifact directory as it runs, exactly the file
// `doubleplay record -trace` would produce.
type jobTrace struct {
	f    *os.File
	sink *trace.Sink
}

// openJobTrace creates a job's trace stream.
func (s *Server) openJobTrace(id string) (*jobTrace, error) {
	dir, err := s.store.JobDir(id)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(dir + "/trace.json")
	if err != nil {
		return nil, err
	}
	return &jobTrace{f: f, sink: trace.NewStreamSink(f, 0)}, nil
}

// close finishes the trace document and reports its event count into the
// summary. Artifacts must be complete before the job turns terminal, so
// runJob calls this on every path.
func (t *jobTrace) close(sum *ResultSummary) error {
	if t == nil {
		return nil
	}
	err := t.sink.Close()
	if sum != nil {
		sum.TraceEvents = t.sink.Len()
	}
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeStats stores the job's stats.json artifact.
func (s *Server) writeStats(id string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return s.store.WriteJobArtifact(id, "stats.json", buf.Bytes())
}

// writeProfile stores a job's guest profile as the profile.pb artifact and
// records its stack count in the summary.
func (s *Server) writeProfile(id string, prof *profile.Profile, sum *ResultSummary) error {
	if prof == nil {
		return nil
	}
	if sum != nil {
		sum.GuestStacks = prof.NumSamples()
	}
	return s.store.WriteJobArtifact(id, "profile.pb", prof.MarshalPprof())
}

// Record builds sp's workload with its world and records it: the one
// place a Spec becomes core.Options, for the daemon's record and verify
// jobs and for `doubleplay record` and `verify`. Zero fields take
// Normalize's defaults. The result keeps the boundaries Verify replays
// from for strides, which are the final boundary alone when strides is
// empty. prof, when non-nil, gathers the guest profile.
func Record(ctx context.Context, sp Spec, strides []int, sink *trace.Sink, reg *trace.Registry, prof *profile.Profile) (*core.Result, *workloads.Built, error) {
	sp.Normalize()
	wl := workloads.Get(sp.Workload)
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", sp.Workload)
	}
	policy, err := core.ParseVerifyPolicy(sp.VerifyPolicy)
	if err != nil {
		return nil, nil, err
	}
	bt := wl.Build(workloads.Params{Workers: sp.Workers, Scale: sp.Scale, Seed: sp.Seed})
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers:           sp.Workers,
		RecordCPUs:        sp.Workers,
		SpareCPUs:         sp.Spares,
		EpochCycles:       sp.EpochCycles,
		EpochGrowth:       sp.Growth,
		Seed:              sp.Seed,
		VerifyPolicy:      policy,
		DetectRaces:       sp.DetectRaces,
		Adaptive:          sp.Adaptive,
		AdaptiveMinSpares: sp.MinSpares,
		AdaptiveMaxSpares: sp.MaxSpares,
		Trace:             sink,
		Metrics:           reg,
		Context:           ctx,
		Profile:           prof,
		KeepBoundaries:    keepBoundaries(strides),
	})
	return res, bt, err
}

// keepBoundaries is the core.Options.KeepBoundaries that keeps what Verify
// replays from for strides: the final boundary for its self-check and, for
// one stride, every stride-th; with several, every boundary, which Verify
// thins for each.
func keepBoundaries(strides []int) int {
	switch len(strides) {
	case 0:
		return -1
	case 1:
		return strides[0]
	}
	return 1
}

// verifyStrides are the strides a job verifies with besides sequential
// replay: none for a record job, and the plan's for a verify job.
func (sp *Spec) verifyStrides() []int {
	if stride, _ := sp.plan(); sp.Kind == kindVerify && stride > 0 {
		return []int{stride}
	}
	return nil
}

// record runs the recording half shared by record and verify jobs,
// stores the recording, and fills the summary. The result keeps the
// boundaries the job's Verify replays from: the final one alone for a
// record job. When the spec asks for a guest profile, the recording's
// profile is returned for the caller to store (verify jobs first compare
// it against the replays').
func (s *Server) record(ctx context.Context, id string, sp Spec, sink *trace.Sink, sum *ResultSummary) (*core.Result, *workloads.Built, *profile.Profile, error) {
	var gprof *profile.Profile
	if sp.GuestProfile {
		gprof = profile.NewProfile("")
	}
	res, bt, err := Record(ctx, sp, sp.verifyStrides(), sink, s.reg, gprof)
	if err != nil {
		return nil, nil, nil, err
	}
	// Store the log without whole-section compression, as Record encoded
	// it: the store compresses each recording at rest in 64 KiB blocks,
	// which shrinks it further than per-section DEFLATE does (DESIGN.md, "A
	// recording is one object").
	digest, err := s.store.PutJobRecording(id, res.Raw)
	if err != nil {
		return nil, nil, nil, err
	}
	sum.Recording = digest
	sum.Epochs = res.Stats.Epochs
	sum.Cycles = res.Stats.CompletionCycles
	sum.FinalHash = fmt.Sprintf("%016x", res.FinalHash)
	sum.Divergences = res.Stats.Divergences
	sum.ReplayBytes = res.Stats.ReplayBytes
	sum.Races = len(res.Races)
	sum.CertStatus = res.Stats.CertStatus
	sum.VerifySkipped = res.Stats.VerifySkipped
	return res, bt, gprof, nil
}

// Log is a recording opened for replay against the spec it was resolved
// with: the one place a log meets a spec, for the daemon's replay and
// debug_diff jobs, `doubleplay replay -log` and `dpdebug` (DESIGN.md
// decision 25).
type Log struct {
	name   string // a path, or "recording_job <id>"
	rd     *dplog.Reader
	sp     Spec
	stride int // replay.Options.Stride of sp's plan
	prog   *vm.Program
}

// OpenLog checks sp's replay plan and resolves the program rd's header
// names against it (workloads.ForLog); sp takes the resolved workload,
// workers, scale and seed. rd must stay readable while the Log is in use.
func OpenLog(name string, rd *dplog.Reader, sp *Spec) (*Log, error) {
	stride, err := sp.plan()
	if err != nil {
		return nil, err
	}
	wl, p, err := workloads.ForLog(rd.Header(), sp.Workload, workloads.Params{Workers: sp.Workers, Scale: sp.Scale, Seed: sp.Seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sp.Workload, sp.Workers, sp.Scale, sp.Seed = wl.Name, p.Workers, p.Scale, p.Seed
	return &Log{name: name, rd: rd, sp: *sp, stride: stride, prog: wl.Program(p)}, nil
}

// Replay replays the log by the plan its spec's mode selects, on as many
// cores as the recording had workers. A log holds no checkpoints, so every
// plan is one sequential pass that prices and narrates the plan
// (replay.Options.Stride). prof, when non-nil, gathers the guest profile.
func (l *Log) Replay(ctx context.Context, sink *trace.Sink, prof *profile.Profile) (*replay.Result, error) {
	return replay.Run(ctx, l.prog, replay.FromReader(l.rd),
		replay.Options{Stride: l.stride, CPUs: l.sp.Workers, Trace: sink, Profile: prof})
}

// Session opens a time-travel session over the log, canceled with ctx.
func (l *Log) Session(ctx context.Context) (*debug.Session, error) {
	s, err := debug.New(l.prog, replay.FromReader(l.rd), nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", l.name, err)
	}
	s.SetContext(ctx)
	return s, nil
}

// Diff bisects the log against b for the first divergent epoch boundary
// when epoch < 0, and diffs boundary epoch otherwise. A pair whose
// program, workers or scale differ is refused first: a bisect over two
// programs compares nothing.
func (l *Log) Diff(ctx context.Context, b *Log, epoch int) (*debug.BisectResult, error) {
	if x, y := l.sp, b.sp; x.Workload != y.Workload || x.Workers != y.Workers || x.Scale != y.Scale {
		return nil, fmt.Errorf("%s runs %s at %d workers, scale %d but %s runs %s at %d workers, scale %d",
			l.name, x.Workload, x.Workers, x.Scale, b.name, y.Workload, y.Workers, y.Scale)
	}
	sa, err := l.Session(ctx)
	if err != nil {
		return nil, err
	}
	sb, err := b.Session(ctx)
	if err != nil {
		return nil, err
	}
	if epoch < 0 {
		return debug.Bisect(sa, sb)
	}
	return debug.CompareAt(sa, sb, epoch)
}

// loadRecording opens the recording of job id, which spec field field
// names, over the store's lazy handle, so strided reads inflate only the
// blocks they touch, and resolves it against sp (OpenLog) at the scale
// the source job recorded at. The returned closer releases the handle
// and must stay open while the Log is in use.
func (s *Server) loadRecording(sp *Spec, field, id string) (*Log, io.Closer, error) {
	src, ok := s.getJob(id)
	if !ok {
		return nil, nil, fmt.Errorf("%s %q is not a known job", field, id)
	}
	srcState, srcScale := s.jobStateScale(src)
	if srcState != StateDone {
		return nil, nil, fmt.Errorf("%s %s is %s, not done — submit replays after the recording finishes", field, id, srcState)
	}
	if sp.Scale != 0 && sp.Scale != srcScale {
		return nil, nil, fmt.Errorf("scale %d disagrees with %s %s's %d", sp.Scale, field, id, srcScale)
	}
	sp.Scale = srcScale
	hd, err := s.store.OpenRecordingByJob(id)
	if err != nil {
		return nil, nil, err
	}
	rd, err := dplog.OpenReader(hd, hd.Size())
	if err != nil {
		hd.Close()
		return nil, nil, fmt.Errorf("corrupt recording artifact for job %s: %w", id, err)
	}
	l, err := OpenLog(field+" "+id, rd, sp)
	if err != nil {
		hd.Close()
		return nil, nil, err
	}
	return l, hd, nil
}

// replayJob replays a stored recording in the requested mode (Log.Replay)
// and stores its stats and profile.
func (s *Server) replayJob(ctx context.Context, id string, sp *Spec, sink *trace.Sink, sum *ResultSummary) error {
	l, closer, err := s.loadRecording(sp, "recording_job", sp.RecordingJob)
	if err != nil {
		return err
	}
	defer closer.Close()
	var prof *profile.Profile
	if sp.GuestProfile {
		prof = profile.NewProfile("")
	}
	rep, err := l.Replay(ctx, sink, prof)
	if err != nil {
		return err
	}
	if err := s.writeProfile(id, prof, sum); err != nil {
		return err
	}
	sum.Epochs = rep.Epochs
	sum.Cycles = rep.Cycles
	sum.FinalHash = fmt.Sprintf("%016x", rep.FinalHash)
	s.reg.Add("replay.loop_instrs", int64(rep.LoopInstrs), trace.Label("workload", sp.Workload))
	return s.writeStats(id, rep)
}

// debugDiffJob runs divergence forensics over two stored recordings, each
// resolved from its own header (Log.Diff), and stores the word-level state
// diff as diff.json. A zero Epoch, the field omitted, bisects.
func (s *Server) debugDiffJob(ctx context.Context, id string, sp *Spec, sum *ResultSummary) error {
	spB := *sp
	a, ca, err := s.loadRecording(sp, "recording_job", sp.RecordingJob)
	if err != nil {
		return err
	}
	defer ca.Close()
	b, cb, err := s.loadRecording(&spB, "recording_job_b", sp.RecordingJobB)
	if err != nil {
		return err
	}
	defer cb.Close()
	res, err := a.Diff(ctx, b, cmp.Or(sp.Epoch, -1))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if err := s.store.WriteJobArtifact(id, "diff.json", buf.Bytes()); err != nil {
		return err
	}
	sum.Epochs = res.EpochsA
	sum.FinalHash = fmt.Sprintf("%016x", a.rd.Header().FinalHash)
	if res.Diverged {
		e := res.Epoch
		sum.FirstDivergence = &e
		sum.Divergences = 1
	}
	return s.writeStats(id, res)
}

// Verify is the round trip after Record: a sequential replay of res,
// then one replay per stride from the recorder's checkpoints (1: every
// checkpoint, n: every n-th), each on cpus cores and each regenerating
// recProf, when non-nil, byte for byte; the guest self-check runs last.
// res must keep at least what Record keeps for the same strides, and
// Verify refuses it before any replay when it does not; Thin selects by
// epoch index, so it returns a set the recorder already thinned as it is.
// It returns the replays' results in that order, those that passed when
// one fails.
func Verify(ctx context.Context, bt *workloads.Built, res *core.Result, cpus int, strides []int, sink *trace.Sink, recProf *profile.Profile) ([]*replay.Result, error) {
	for _, stride := range strides {
		if err := keptFor(res, stride); err != nil {
			return nil, err
		}
	}
	var want []byte
	if recProf != nil {
		want = recProf.MarshalPprof()
	}
	src := replay.FromRecording(res.Recording)
	var reps []*replay.Result
	for _, stride := range append([]int{0}, strides...) {
		plan, opt := "sequential", replay.Options{CPUs: cpus, Trace: sink}
		if stride > 0 {
			plan, opt.Boundaries = "sparse", replay.Thin(res.Boundaries, stride)
			if stride == 1 {
				plan = "parallel"
			}
		}
		if recProf != nil {
			opt.Profile = profile.NewProfile("")
		}
		rep, err := replay.Run(ctx, bt.Prog, src, opt)
		if err != nil {
			return reps, fmt.Errorf("%s replay: %w", plan, err)
		}
		if recProf != nil && !bytes.Equal(want, opt.Profile.MarshalPprof()) {
			return reps, fmt.Errorf("guest profile: %s replay profile differs from record profile", plan)
		}
		reps = append(reps, rep)
	}
	last := res.Boundaries[len(res.Boundaries)-1]
	if err := bt.CheckOK(last.CP.MemSnap.Peek); err != nil {
		return reps, fmt.Errorf("guest self-check: %w", err)
	}
	return reps, nil
}

// keptFor returns an error unless res kept every boundary a replay by
// stride starts from: each one whose index is a multiple of stride, and
// the final one.
func keptFor(res *core.Result, stride int) error {
	if stride <= 0 {
		return nil
	}
	n := res.Stats.Epochs
	bs := replay.Thin(res.Boundaries, stride)
	for i, b := range bs {
		if want := min(i*stride, n); b.Index != want {
			return fmt.Errorf("stride %d replay: the recording kept boundary %d where %d belongs", stride, b.Index, want)
		}
	}
	if len(bs) == 0 || bs[len(bs)-1].Index != n {
		return fmt.Errorf("stride %d replay: the recording's boundaries end before the final one, %d", stride, n)
	}
	return nil
}

// verifyJob is the in-memory round trip: record, then Verify
// sequentially and by the plan mode asks for.
func (s *Server) verifyJob(ctx context.Context, id string, sp Spec, sink *trace.Sink, sum *ResultSummary) error {
	res, bt, gprof, err := s.record(ctx, id, sp, sink, sum)
	if err != nil {
		return err
	}
	defer res.ReleaseCheckpoints()
	if _, err := Verify(ctx, bt, res, sp.Workers, sp.verifyStrides(), sink, gprof); err != nil {
		return err
	}
	if err := s.writeProfile(id, gprof, sum); err != nil {
		return err
	}
	return s.writeStats(id, res.Stats)
}

// runJob executes one job end to end on a private copy of its spec: open
// the trace stream, dispatch on kind, flush artifacts. It returns the
// possibly-defaulted spec for republication and the job's terminal error
// (nil for done). Artifact flushing happens on every path, so even failed
// and canceled jobs leave a parseable trace behind.
func (s *Server) runJob(ctx context.Context, id string, sp Spec, sum *ResultSummary) (Spec, error) {
	jt, err := s.openJobTrace(id)
	if err != nil {
		return sp, err
	}
	switch sp.Kind {
	case KindRecord:
		res, _, gprof, rerr := s.record(ctx, id, sp, jt.sink, sum)
		if rerr == nil {
			res.ReleaseCheckpoints()
			rerr = s.writeProfile(id, gprof, sum)
		}
		if rerr == nil {
			rerr = s.writeStats(id, res.Stats)
		}
		err = rerr
	case KindReplay:
		err = s.replayJob(ctx, id, &sp, jt.sink, sum)
	case kindVerify:
		err = s.verifyJob(ctx, id, sp, jt.sink, sum)
	case kindDebugDiff:
		err = s.debugDiffJob(ctx, id, &sp, sum)
	default:
		err = fmt.Errorf("unknown job kind %q", sp.Kind)
	}
	if cerr := jt.close(sum); err == nil && cerr != nil {
		err = fmt.Errorf("flushing trace: %w", cerr)
	}
	return sp, err
}
