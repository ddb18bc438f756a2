package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"doubleplay/internal/core"
	"doubleplay/internal/debug"
	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/store"
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

// buildWorkload instantiates the spec's benchmark.
func buildWorkload(sp Spec) (*workloads.Built, error) {
	wl := workloads.Get(sp.Workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", sp.Workload)
	}
	return wl.Build(workloads.Params{Workers: sp.Workers, Scale: sp.Scale, Seed: sp.Seed}), nil
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

// record runs the recording half shared by record and verify jobs,
// stores the recording, and fills the summary. When the spec asks for
// a guest profile, the recording's profile is returned for the caller to
// store (verify jobs first compare it against the replay's).
func (s *Server) record(ctx context.Context, id string, sp Spec, sink trace.Recorder, sum *ResultSummary) (*core.Result, *workloads.Built, *profile.Profile, error) {
	bt, err := buildWorkload(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	policy, err := core.ParseVerifyPolicy(sp.VerifyPolicy)
	if err != nil {
		return nil, nil, nil, err
	}
	var gprof *profile.Profile
	if sp.GuestProfile {
		gprof = profile.NewProfile("")
	}
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
		Metrics:           s.reg,
		Context:           ctx,
		Profile:           gprof,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// Marshal without whole-section compression: the store compresses each
	// recording at rest in 64 KiB blocks, which shrinks it further than
	// per-section DEFLATE does (DESIGN.md, "A recording is one object").
	data := dplog.MarshalBytesWith(res.Recording, dplog.EncodeOptions{Compress: false})
	digest, err := s.putRecording(id, data)
	if errors.Is(err, store.ErrNoRecording) {
		// A GC ran between the put and the ref and collected the still
		// unreferenced recording; store it again.
		digest, err = s.putRecording(id, data)
	}
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

// putRecording stores a job's recording and publishes its ref.
func (s *Server) putRecording(id string, data []byte) (string, error) {
	digest, err := s.store.PutRecording(data)
	if err != nil {
		return "", err
	}
	return digest, s.store.SetRecordingRef(id, digest)
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
// epoch sections straight out of the artifact. Parallel and sparse modes
// first rebuild the epoch-start checkpoints from the log
// (replay.CheckpointsFrom) — the artifact carries only the logs — and
// replay from all of them or from every Stride-th.
func (s *Server) replayJob(ctx context.Context, id string, sp *Spec, sink trace.Recorder, sum *ResultSummary) error {
	rd, closer, err := s.loadRecording(sp)
	if err != nil {
		return err
	}
	defer closer.Close()
	bt, err := buildWorkload(*sp)
	if err != nil {
		return err
	}
	src := replay.FromReader(rd)
	opt := replay.Options{CPUs: sp.Workers, Trace: sink}
	if sp.GuestProfile {
		opt.Profile = profile.NewProfile("")
	}
	switch sp.Mode {
	case ModeSequential:
	case ModeParallel, ModeSparse:
		bs, err := replay.CheckpointsFrom(ctx, bt.Prog, src, nil)
		if err != nil {
			return err
		}
		if sp.Mode == ModeSparse {
			bs = replay.Thin(bs, sp.Stride)
		}
		opt.Boundaries = bs
	default:
		return fmt.Errorf("unknown replay mode %q", sp.Mode)
	}
	rep, err := replay.Run(ctx, bt.Prog, src, opt)
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
	bt, err := buildWorkload(*sp)
	if err != nil {
		closer.Close()
		return nil, nil, err
	}
	sess, err := debug.New(bt.Prog, replay.FromReader(rd), nil)
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
		d, derr := debug.DiffAt(sa, sb, sp.Epoch)
		if derr != nil {
			return derr
		}
		res = &debug.BisectResult{
			Diverged: !d.Equal, Epoch: d.Epoch,
			EpochsA: sa.NumEpochs(), EpochsB: sb.NumEpochs(),
			HashA: d.HashA, HashB: d.HashB, Diff: d,
		}
	} else if res, err = debug.Bisect(sa, sb); err != nil {
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

// verifyJob is the in-memory round trip: record, replay sequentially
// (and in parallel when mode asks), and run the guest self-check.
func (s *Server) verifyJob(ctx context.Context, id string, sp Spec, sink trace.Recorder, sum *ResultSummary) error {
	res, bt, gprof, err := s.record(ctx, id, sp, sink, sum)
	if err != nil {
		return err
	}
	defer res.ReleaseCheckpoints()
	var repProf *profile.Profile
	if gprof != nil {
		repProf = profile.NewProfile("")
	}
	src := replay.FromRecording(res.Recording)
	if _, err := replay.Run(ctx, bt.Prog, src, replay.Options{Trace: sink, Profile: repProf}); err != nil {
		return fmt.Errorf("sequential replay: %w", err)
	}
	if gprof != nil && !bytes.Equal(gprof.MarshalPprof(), repProf.MarshalPprof()) {
		return fmt.Errorf("guest profile: replay profile differs from record profile")
	}
	if sp.Mode == ModeParallel {
		opt := replay.Options{Boundaries: res.Boundaries, CPUs: sp.Workers, Trace: sink}
		if _, err := replay.Run(ctx, bt.Prog, src, opt); err != nil {
			return fmt.Errorf("parallel replay: %w", err)
		}
	}
	last := res.Boundaries[len(res.Boundaries)-1]
	if err := bt.CheckOK(last.CP.MemSnap.Peek); err != nil {
		return fmt.Errorf("guest self-check: %w", err)
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
	case KindVerify:
		err = s.verifyJob(ctx, id, sp, jt.sink, sum)
	case KindDebugDiff:
		err = s.debugDiffJob(ctx, id, &sp, sum)
	default:
		err = fmt.Errorf("unknown job kind %q", sp.Kind)
	}
	if cerr := jt.close(sum); err == nil && cerr != nil {
		err = fmt.Errorf("flushing trace: %w", cerr)
	}
	return sp, err
}
