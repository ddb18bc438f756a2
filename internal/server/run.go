package server

import (
	"bytes"
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

// specWorkload resolves the spec's benchmark and the parameters it is
// built at. A job that records builds it with its world (Build); a job
// that replays builds the program alone (Program), because every syscall
// result it needs is in the log.
func specWorkload(sp Spec) (*workloads.Workload, workloads.Params, error) {
	wl := workloads.Get(sp.Workload)
	if wl == nil {
		return nil, workloads.Params{}, fmt.Errorf("unknown workload %q", sp.Workload)
	}
	return wl, workloads.Params{Workers: sp.Workers, Scale: sp.Scale, Seed: sp.Seed}, nil
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
	wl, p, err := specWorkload(sp)
	if err != nil {
		return nil, nil, err
	}
	policy, err := core.ParseVerifyPolicy(sp.VerifyPolicy)
	if err != nil {
		return nil, nil, err
	}
	bt := wl.Build(p)
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
	if stride := sp.planStride(); sp.Kind == kindVerify && stride > 0 {
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

// loadRecording resolves a replay job's source recording as a seekable
// log reader over the store's lazy handle — strided reads inflate only
// the blocks they touch rather than materializing the whole log — and
// defaults the spec's workload parameters from its
// header so a minimal {"kind":"replay","recording_job":...} body
// replays faithfully. The returned closer releases the handle; callers
// must keep it open for as long as the reader is in use.
func (s *Server) loadRecording(sp *Spec) (*dplog.Reader, io.Closer, error) {
	src, ok := s.getJob(sp.RecordingJob)
	if !ok {
		return nil, nil, fmt.Errorf("recording_job %q is not a known job", sp.RecordingJob)
	}
	srcState, srcScale := s.jobStateScale(src)
	if srcState != StateDone {
		return nil, nil, fmt.Errorf("recording_job %s is %s, not done — submit replays after the recording finishes", sp.RecordingJob, srcState)
	}
	hd, err := s.store.OpenRecordingByJob(sp.RecordingJob)
	if err != nil {
		return nil, nil, err
	}
	rd, err := dplog.OpenReader(hd, hd.Size())
	if err != nil {
		hd.Close()
		return nil, nil, fmt.Errorf("corrupt recording artifact for job %s: %w", sp.RecordingJob, err)
	}
	h := rd.Header()
	if sp.Workload == "" {
		sp.Workload = h.Program
	}
	if h.Workers > 0 {
		sp.Workers = h.Workers
	}
	if h.Seed != 0 {
		sp.Seed = h.Seed
	}
	if srcScale > 0 {
		sp.Scale = srcScale
	}
	return rd, hd, nil
}

// replayJob replays a stored recording in the requested mode, seeking
// epoch sections straight out of the artifact. The artifact carries only
// the logs, so every mode is one sequential pass: parallel and sparse
// modes price and narrate the plan of every epoch start or every
// Stride-th from it (replay.Options.Stride) without rebuilding a
// checkpoint.
func (s *Server) replayJob(ctx context.Context, id string, sp *Spec, sink *trace.Sink, sum *ResultSummary) error {
	rd, closer, err := s.loadRecording(sp)
	if err != nil {
		return err
	}
	defer closer.Close()
	wl, p, err := specWorkload(*sp)
	if err != nil {
		return err
	}
	src := replay.FromReader(rd)
	opt := replay.Options{Stride: sp.planStride(), CPUs: sp.Workers, Trace: sink}
	if sp.GuestProfile {
		opt.Profile = profile.NewProfile("")
	}
	rep, err := replay.Run(ctx, wl.Program(p), src, opt)
	if err != nil {
		return err
	}
	if err := s.writeProfile(id, opt.Profile, sum); err != nil {
		return err
	}
	sum.Epochs = rep.Epochs
	sum.Cycles = rep.Cycles
	sum.FinalHash = fmt.Sprintf("%016x", rep.FinalHash)
	s.reg.Add("replay.loop_instrs", int64(rep.LoopInstrs), trace.Label("workload", sp.Workload))
	return s.writeStats(id, rep)
}

// debugSession opens a time-travel session over one referenced
// recording, defaulting the given spec copy's workload parameters from
// that recording's header (each recording carries its own seed). The
// returned closer releases the underlying store handle and must stay
// open for the session's lifetime.
func (s *Server) debugSession(ctx context.Context, sp *Spec) (*debug.Session, io.Closer, error) {
	rd, closer, err := s.loadRecording(sp)
	if err != nil {
		return nil, nil, err
	}
	wl, p, err := specWorkload(*sp)
	if err != nil {
		closer.Close()
		return nil, nil, err
	}
	sess, err := debug.New(wl.Program(p), replay.FromReader(rd), nil)
	if err != nil {
		closer.Close()
		return nil, nil, fmt.Errorf("recording of job %s: %w", sp.RecordingJob, err)
	}
	sess.SetContext(ctx)
	return sess, closer, nil
}

// debugDiffJob runs divergence forensics over two stored recordings:
// bisect for the first divergent epoch boundary (or diff the one the
// spec names) and store the word-level state diff as diff.json.
func (s *Server) debugDiffJob(ctx context.Context, id string, sp *Spec, sum *ResultSummary) error {
	sa, ca, err := s.debugSession(ctx, sp)
	if err != nil {
		return err
	}
	defer ca.Close()
	spB := *sp
	spB.RecordingJob = sp.RecordingJobB
	sb, cb, err := s.debugSession(ctx, &spB)
	if err != nil {
		return err
	}
	defer cb.Close()
	var res *debug.BisectResult
	if sp.Epoch > 0 {
		res, err = debug.CompareAt(sa, sb, sp.Epoch)
	} else {
		res, err = debug.Bisect(sa, sb)
	}
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
	sum.Epochs = sa.NumEpochs()
	if fh, herr := sa.BoundaryHash(sa.NumEpochs()); herr == nil {
		sum.FinalHash = fmt.Sprintf("%016x", fh)
	}
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
