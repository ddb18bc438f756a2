// Package server is the long-running face of the reproduction: a
// job-oriented record/replay daemon (`doubleplay serve`). Clients submit
// record, replay, and verify jobs over a JSON HTTP API; jobs wait in a
// bounded FIFO queue, run on a fixed worker pool with per-job timeouts
// and cancellation threaded into core.Record and the replay strategies,
// and leave durable artifacts — the dplog-marshalled recording as one
// content-addressed object in the store, a streamed Chrome trace, and a stats
// JSON — that later jobs can reference by id (replay-by-id). The daemon
// exposes queue, pool, and per-job metrics on a shared trace.Registry at
// /metrics and drains gracefully on shutdown.
//
// The shape follows what record/replay systems grow into in production:
// recordings are durable, shareable artifacts replayed later and
// elsewhere (rr's ecosystem), and many recordings run concurrently
// through one service. docs/SERVER.md documents the API schema, the job
// lifecycle, and the metrics series.
package server

import (
	"fmt"
	"strings"
	"time"

	"doubleplay/internal/core"
	"doubleplay/internal/workloads"
)

// Kind is a job's flavour.
type Kind string

const (
	// KindRecord performs a uniparallel recording and stores the
	// resulting replay log as a content-addressed artifact.
	KindRecord Kind = "record"
	// KindReplay replays a stored recording referenced by job id, in
	// sequential, parallel, or sparse mode.
	KindReplay Kind = "replay"
	// kindVerify records and then replays in memory, checking every
	// boundary hash and the guest self-check: Record, then Verify, the
	// code `doubleplay verify` runs.
	kindVerify Kind = "verify"
	// kindDebugDiff runs divergence forensics over two stored recordings
	// referenced by job id: bisect for the first epoch boundary at which
	// their states diverge (or diff one specific boundary) and store the
	// word-level state diff as the diff.json artifact — the service form
	// of `dpdebug bisect`/`dpdebug diff`.
	kindDebugDiff Kind = "debug_diff"
)

// State is a job's position in its lifecycle. Transitions are strictly
// queued -> running -> {done, failed, canceled}, or queued -> canceled
// when a job is canceled (or the daemon drains) before a worker picks it
// up.
type State string

const (
	stateQueued   State = "queued"
	stateRunning  State = "running"
	StateDone     State = "done"
	stateFailed   State = "failed"
	stateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == stateFailed || s == stateCanceled
}

// ReplayMode selects a replay job's strategy.
const (
	ModeSequential = "sequential"
	modeParallel   = "parallel"
	ModeSparse     = "sparse"
)

// Spec is the client-supplied description of a job — the JSON body of
// POST /jobs. Zero fields take server defaults (Normalize).
type Spec struct {
	Kind Kind `json:"kind"`

	// Workload names a builtin benchmark. Required for record and verify
	// jobs. Replay and debug_diff jobs take it, Workers and Seed from the
	// recording's header and Scale from the job that recorded it; a field
	// set here that disagrees fails the job.
	Workload string `json:"workload,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Spares   int    `json:"spares,omitempty"`
	Scale    int    `json:"scale,omitempty"`
	Seed     int64  `json:"seed,omitempty"`

	// EpochCycles and Growth tune the recorder (record/verify jobs).
	EpochCycles int64   `json:"epoch_cycles,omitempty"`
	Growth      float64 `json:"growth,omitempty"`
	DetectRaces bool    `json:"detect_races,omitempty"`

	// VerifyPolicy selects the recorder's epoch verification policy for
	// record/verify jobs: "" or "always" runs the epoch-parallel pass for
	// every epoch; "certified" skips it when the static race-freedom
	// certificate proves the workload safe (falling back to always
	// otherwise — the job's stats.json records the decision).
	VerifyPolicy string `json:"verify_policy,omitempty"`

	// Adaptive enables the recorder's spare-slot feedback controller
	// (record/verify jobs), bounded to [MinSpares, MaxSpares] active
	// slots and starting from Spares. Zero bounds take core defaults
	// (min 1, max Spares).
	Adaptive  bool `json:"adaptive,omitempty"`
	MinSpares int  `json:"min_spares,omitempty"`
	MaxSpares int  `json:"max_spares,omitempty"`

	// Mode selects the replay strategy for replay jobs (and, when set to
	// "parallel", adds a parallel replay to verify jobs). Stride thins
	// checkpoints for sparse replay.
	Mode   string `json:"mode,omitempty"`
	Stride int    `json:"stride,omitempty"`

	// RecordingJob references the record (or verify) job whose stored
	// recording a replay job reproduces. The referenced job must have
	// finished before the replay job runs. Debug-diff jobs compare it
	// against RecordingJobB.
	RecordingJob string `json:"recording_job,omitempty"`

	// RecordingJobB is the second recording of a debug_diff job; both
	// recordings must come from the same program build. Epoch selects one
	// boundary to diff (> 0); when zero the job bisects for the first
	// divergent boundary instead.
	RecordingJobB string `json:"recording_job_b,omitempty"`
	Epoch         int    `json:"epoch,omitempty"`

	// TimeoutMS bounds the job's host execution time; 0 uses the server
	// default. The timeout cancels the job cooperatively at the next
	// epoch boundary.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Priority selects the queue lane: "interactive" jobs overtake
	// "batch" jobs at the queue head (starvation-bounded; see
	// internal/server/queue.go). Empty defaults by kind — record jobs are
	// batch (campaign traffic), replay/verify/debug_diff jobs are
	// interactive (someone is waiting on the answer).
	Priority string `json:"priority,omitempty"`

	// GuestProfile asks the job to gather the deterministic guest cycle
	// profile (see internal/profile) and store it as the profile.pb
	// artifact, fetchable at GET /jobs/{id}/profile. Record and verify
	// jobs profile the recording; replay jobs profile the replayed
	// execution — for the same log the two artifacts are byte-identical,
	// and verify jobs check that property before turning done.
	GuestProfile bool `json:"guest_profile,omitempty"`
}

// Normalize fills defaults in place. A replay or debug_diff job takes its
// workers, scale and seed from the recording it reads (OpenLog), so those
// stay as the client set them.
func (sp *Spec) Normalize() {
	if sp.Kind != KindReplay && sp.Kind != kindDebugDiff {
		if sp.Workers <= 0 {
			sp.Workers = 2
		}
		if sp.Scale <= 0 {
			sp.Scale = 1
		}
		if sp.Seed == 0 {
			sp.Seed = 11
		}
	}
	if sp.Spares <= 0 {
		sp.Spares = sp.Workers
	}
	if sp.Growth < 1 {
		sp.Growth = 1
	}
	if sp.Mode == "" && (sp.Kind == KindReplay || sp.Kind == kindVerify) {
		sp.Mode = ModeSequential
	}
	if sp.Priority == "" {
		if sp.Kind == KindRecord {
			sp.Priority = laneBatch
		} else {
			sp.Priority = laneInteractive
		}
	}
}

// Validate rejects malformed specs at submission time. jobExists answers
// whether a referenced recording job is known (any state — completion is
// checked again when the replay actually runs).
func (sp *Spec) Validate(jobExists func(id string) bool) error {
	switch sp.Kind {
	case KindRecord, kindVerify:
		if sp.Workload == "" {
			return fmt.Errorf("%s job requires a workload", sp.Kind)
		}
		if workloads.Get(sp.Workload) == nil {
			return fmt.Errorf("unknown workload %q", sp.Workload)
		}
	case KindReplay:
		if sp.RecordingJob == "" {
			return fmt.Errorf("replay job requires recording_job (the id of a finished record job)")
		}
		if jobExists != nil && !jobExists(sp.RecordingJob) {
			return fmt.Errorf("recording_job %q is not a known job", sp.RecordingJob)
		}
		if sp.Workload != "" && workloads.Get(sp.Workload) == nil {
			return fmt.Errorf("unknown workload %q", sp.Workload)
		}
	case kindDebugDiff:
		if sp.RecordingJob == "" || sp.RecordingJobB == "" {
			return fmt.Errorf("debug_diff job requires recording_job and recording_job_b (ids of finished record jobs)")
		}
		if jobExists != nil && !jobExists(sp.RecordingJob) {
			return fmt.Errorf("recording_job %q is not a known job", sp.RecordingJob)
		}
		if jobExists != nil && !jobExists(sp.RecordingJobB) {
			return fmt.Errorf("recording_job_b %q is not a known job", sp.RecordingJobB)
		}
		if sp.Epoch < 0 {
			return fmt.Errorf("epoch must be >= 0 (0 bisects)")
		}
		if sp.Workload != "" && workloads.Get(sp.Workload) == nil {
			return fmt.Errorf("unknown workload %q", sp.Workload)
		}
	default:
		return fmt.Errorf("unknown job kind %q (want record, replay, verify, or debug_diff)", sp.Kind)
	}
	if _, err := sp.plan(); err != nil {
		return err
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	if !sp.Adaptive && (sp.MinSpares != 0 || sp.MaxSpares != 0) {
		return fmt.Errorf("min_spares/max_spares require adaptive")
	}
	if sp.MinSpares < 0 || sp.MaxSpares < 0 {
		return fmt.Errorf("min_spares/max_spares must be >= 0")
	}
	if sp.MinSpares > 0 && sp.MaxSpares > 0 && sp.MaxSpares < sp.MinSpares {
		return fmt.Errorf("max_spares must be >= min_spares")
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"workers", sp.Workers, workloads.MaxWorkers},
		{"spares", sp.Spares, workloads.MaxWorkers},
		{"min_spares", sp.MinSpares, workloads.MaxWorkers},
		{"max_spares", sp.MaxSpares, workloads.MaxWorkers},
		{"scale", sp.Scale, workloads.MaxScale},
	} {
		if f.v > f.max {
			return fmt.Errorf("%s %d is over the limit of %d", f.name, f.v, f.max)
		}
	}
	if _, err := core.ParseVerifyPolicy(sp.VerifyPolicy); err != nil {
		return fmt.Errorf("verify_policy %q: want always or certified", sp.VerifyPolicy)
	}
	switch sp.Priority {
	case "", laneInteractive, laneBatch:
	default:
		return fmt.Errorf("unknown priority %q (want interactive or batch)", sp.Priority)
	}
	return nil
}

// plan is the replay.Options.Stride of the plan Mode selects: 0
// sequential, 1 every epoch start (parallel), Stride for sparse. It fails
// for a Mode and Stride that describe no plan.
func (sp *Spec) plan() (int, error) {
	switch sp.Mode {
	case "", ModeSequential:
		return 0, nil
	case modeParallel:
		return 1, nil
	case ModeSparse:
		if sp.Stride < 2 {
			return 0, fmt.Errorf("sparse replay requires stride >= 2")
		}
		return sp.Stride, nil
	}
	return 0, fmt.Errorf("unknown replay mode %q (want sequential, parallel, or sparse)", sp.Mode)
}

// ResultSummary is the outcome a finished job reports inline (the full
// stats live in the stats.json artifact).
type ResultSummary struct {
	Epochs      int    `json:"epochs"`
	Cycles      int64  `json:"cycles"`
	FinalHash   string `json:"final_hash"`
	Divergences int    `json:"divergences,omitempty"`
	ReplayBytes int    `json:"replay_bytes,omitempty"`
	Races       int    `json:"races,omitempty"`
	Recording   string `json:"recording,omitempty"` // store digest
	TraceEvents int    `json:"trace_events,omitempty"`

	// CertStatus and VerifySkipped report the certified verify-skip
	// decision for jobs submitted with verify_policy "certified".
	CertStatus    string `json:"cert_status,omitempty"`
	VerifySkipped int    `json:"verify_skipped,omitempty"`

	// GuestStacks counts the distinct call stacks in the guest profile of
	// a job submitted with guest_profile.
	GuestStacks int `json:"guest_stacks,omitempty"`

	// FirstDivergence is a debug_diff job's answer: the first epoch
	// boundary at which the two recordings' states differ (nil when the
	// recordings agree everywhere). The full state diff is in diff.json.
	FirstDivergence *int `json:"first_divergence,omitempty"`
}

// job is one unit of work and its full lifecycle record. The server's
// mutex guards every mutable field.
type job struct {
	ID       string
	Seq      int
	Spec     Spec
	State    State
	Error    string
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Result   *ResultSummary

	// cancel aborts the running job's context, and is set whenever State
	// is running; cancelRequested distinguishes an explicit DELETE from a
	// timeout.
	cancel          func()
	cancelRequested bool
}

// Info is the JSON view of a job served by the API.
type Info struct {
	ID       string            `json:"id"`
	Kind     Kind              `json:"kind"`
	State    State             `json:"state"`
	Spec     Spec              `json:"spec"`
	Error    string            `json:"error,omitempty"`
	Created  time.Time         `json:"created"`
	Started  *time.Time        `json:"started,omitempty"`
	Finished *time.Time        `json:"finished,omitempty"`
	Result   *ResultSummary    `json:"result,omitempty"`
	Links    map[string]string `json:"links,omitempty"`
}

// info snapshots a job for the API; the caller holds the server mutex.
func (j *job) info() Info {
	in := Info{
		ID:      j.ID,
		Kind:    j.Spec.Kind,
		State:   j.State,
		Spec:    j.Spec,
		Error:   j.Error,
		Created: j.Created,
	}
	if !j.Started.IsZero() {
		t := j.Started
		in.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		in.Finished = &t
	}
	if j.Result != nil {
		r := *j.Result
		in.Result = &r
	}
	base := "/jobs/" + j.ID
	in.Links = map[string]string{"self": base, "trace": base + "/trace", "stats": base + "/stats"}
	if j.Spec.Kind != KindReplay && j.Spec.Kind != kindDebugDiff {
		in.Links["recording"] = base + "/recording"
		in.Links["pin"] = base + "/pin"
	}
	if j.Spec.Kind == kindDebugDiff {
		in.Links["diff"] = base + "/diff"
	}
	if j.Spec.GuestProfile {
		in.Links["profile"] = base + "/profile"
	}
	return in
}

// shortErr trims multi-line error text for the inline Error field.
func shortErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}
