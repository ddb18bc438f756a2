package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"time"

	"doubleplay/internal/store"
	"doubleplay/internal/trace"
)

// ErrDraining is returned by Submit once Shutdown has begun; the HTTP
// layer translates it into 503 Service Unavailable.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// Config tunes the daemon.
type Config struct {
	// DataDir roots the artifact store (recordings + per-job directories).
	DataDir string

	// Workers is the worker-pool size — how many jobs run concurrently.
	Workers int

	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 429.
	QueueDepth int

	// JobTimeout bounds each job's host execution time unless its spec
	// sets timeout_ms. Zero means no default timeout.
	JobTimeout time.Duration

	// DrainTimeout is how long Shutdown waits for in-flight jobs to finish
	// before canceling them.
	DrainTimeout time.Duration

	// Registry receives queue, pool, and per-run metrics; nil allocates a
	// private one.
	Registry *trace.Registry

	// EnablePprof mounts net/http/pprof under /debug/pprof on the API
	// handler (doubleplay serve -pprof). Off by default: the profiling
	// endpoints expose host internals and cost CPU when scraped, so they
	// are strictly opt-in.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Registry == nil {
		c.Registry = trace.NewRegistry()
	}
	return c
}

// Server is the record/replay job daemon: a bounded queue feeding a fixed
// worker pool, an artifact store, and the HTTP API over both.
type Server struct {
	cfg   Config
	store *store.Store
	queue *Queue
	reg   *trace.Registry

	mu       sync.Mutex
	jobs     map[string]*Job
	byState  map[State]int // jobs per state, adjusted at each transition
	order    []*Job        // submission order, for GET /jobs
	seq      int
	busy     int
	draining bool

	wg sync.WaitGroup // worker goroutines
}

// New builds a Server; call Start to launch its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	st, err := store.Open(cfg.DataDir, cfg.Registry)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   st,
		queue:   NewQueue(cfg.QueueDepth),
		reg:     cfg.Registry,
		jobs:    make(map[string]*Job),
		byState: make(map[State]int),
	}
	s.publishQueueGauges()
	s.reg.Set("serve.workers_busy", 0)
	s.reg.Set("serve.workers_total", float64(cfg.Workers))
	return s, nil
}

// Store exposes the artifact store (tests and the CLI peek at it).
func (s *Server) Store() *store.Store { return s.store }

// publishQueueGauges republishes the total and per-lane queue depths.
func (s *Server) publishQueueGauges() {
	s.reg.Set("serve.queue_depth", float64(s.queue.Len()))
	for _, lane := range []string{LaneInteractive, LaneBatch} {
		s.reg.Set("queue.lane_depth", float64(s.queue.LaneLen(lane)), trace.Label("lane", lane))
	}
}

// Registry exposes the metrics registry the daemon reports into.
func (s *Server) Registry() *trace.Registry { return s.reg }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
}

// jobID derives a short stable id from the spec and submission sequence.
func jobID(sp Spec, seq int) string {
	b, _ := json.Marshal(sp)
	sum := sha256.Sum256(append(b, byte(seq), byte(seq>>8), byte(seq>>16), byte(seq>>24)))
	return hex.EncodeToString(sum[:8])
}

// Submit validates, registers, and enqueues a job.
func (s *Server) Submit(sp Spec) (Info, error) {
	sp.Normalize()
	if err := sp.Validate(func(id string) bool {
		_, ok := s.getJob(id)
		return ok
	}); err != nil {
		return Info{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Info{}, ErrDraining
	}
	s.seq++
	j := &Job{
		ID:      jobID(sp, s.seq),
		Seq:     s.seq,
		Spec:    sp,
		State:   StateQueued,
		Created: time.Now(),
	}
	if err := s.queue.Push(j); err != nil {
		s.reg.Add("serve.jobs_rejected", 1)
		return Info{}, err
	}
	s.jobs[j.ID] = j
	s.byState[StateQueued]++
	s.order = append(s.order, j)
	s.reg.Add("serve.jobs_submitted", 1, trace.Label("kind", string(sp.Kind)))
	s.publishQueueGauges()
	s.stateGaugesLocked()
	return j.info(), nil
}

// getJob looks a job up by id.
func (s *Server) getJob(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobStateScale snapshots the fields loadRecording needs from a source
// job without holding the lock across the whole replay setup.
func (s *Server) jobStateScale(j *Job) (State, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.State, j.Spec.Scale
}

// jobInfo snapshots a job's API view.
func (s *Server) jobInfo(j *Job) Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.info()
}

// jobState reads a job's current state.
func (s *Server) jobState(j *Job) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.State
}

// setStateLocked moves a registered job to st and keeps the per-state
// counts in step — the jobs map only grows, so the gauges are published
// from counts rather than from a scan of it. The caller holds s.mu.
func (s *Server) setStateLocked(j *Job, st State) {
	s.byState[j.State]--
	s.byState[st]++
	j.State = st
}

// stateGaugesLocked republishes the jobs-by-state gauges; the caller
// holds s.mu.
func (s *Server) stateGaugesLocked() {
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		s.reg.Set("serve.jobs", float64(s.byState[st]), trace.Label("state", string(st)))
	}
}

// worker is one pool goroutine: pop, run, publish, repeat until the
// queue closes.
func (s *Server) worker() {
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.publishQueueGauges()

		s.mu.Lock()
		if j.State != StateQueued { // canceled while queued
			s.mu.Unlock()
			continue
		}
		s.setStateLocked(j, StateRunning)
		j.Started = time.Now()
		sp := j.Spec
		timeout := time.Duration(sp.TimeoutMS) * time.Millisecond
		if timeout <= 0 {
			timeout = s.cfg.JobTimeout
		}
		ctx, cancel := context.WithCancel(context.Background())
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), timeout)
		}
		j.cancel = cancel
		s.busy++
		s.reg.Set("serve.workers_busy", float64(s.busy))
		s.stateGaugesLocked()
		s.mu.Unlock()

		sum := &ResultSummary{}
		spOut, err := s.runJob(ctx, j.ID, sp, sum)
		cancel()
		s.finish(j, spOut, sum, err, ctx)
	}
}

// finish moves a job to its terminal state, publishes the (possibly
// defaulted) spec and result, writes the job.json manifest, and updates
// the pool metrics.
func (s *Server) finish(j *Job, sp Spec, sum *ResultSummary, err error, ctx context.Context) {
	s.mu.Lock()
	j.Spec = sp
	j.Finished = time.Now()
	j.Result = sum
	switch {
	case err == nil:
		s.setStateLocked(j, StateDone)
	case j.cancelRequested:
		s.setStateLocked(j, StateCanceled)
		j.Error = shortErr(err)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.setStateLocked(j, StateFailed)
		j.Error = fmt.Sprintf("timed out: %s", shortErr(err))
	default:
		s.setStateLocked(j, StateFailed)
		j.Error = shortErr(err)
	}
	s.busy--
	s.reg.Set("serve.workers_busy", float64(s.busy))
	s.stateGaugesLocked()
	kind := trace.Label("kind", string(j.Spec.Kind))
	s.reg.Add("serve.jobs_completed", 1, trace.Label("outcome", string(j.State)))
	s.reg.Observe("serve.job_queue_ms", j.Started.Sub(j.Created).Milliseconds(), kind)
	s.reg.Observe("serve.job_run_ms", j.Finished.Sub(j.Started).Milliseconds(), kind)
	info := j.info()
	s.mu.Unlock()

	if b, merr := json.MarshalIndent(info, "", "  "); merr == nil {
		_ = s.store.WriteJobArtifact(j.ID, "job.json", b)
	}
}

// Cancel cancels a job: a queued job is removed from the queue and turns
// canceled immediately; a running job gets its context canceled and turns
// canceled when the worker observes it (at the next epoch boundary).
// Canceling a terminal job is a no-op. The bool reports whether the job
// exists.
func (s *Server) Cancel(id string) (Info, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Info{}, false
	}
	switch j.State {
	case StateQueued:
		if s.queue.Remove(id) {
			s.setStateLocked(j, StateCanceled)
			j.Finished = time.Now()
			j.Error = "canceled before start"
			s.publishQueueGauges()
			s.reg.Add("serve.jobs_completed", 1, trace.Label("outcome", string(StateCanceled)))
			s.stateGaugesLocked()
			info := j.info()
			s.mu.Unlock()
			if b, err := json.MarshalIndent(info, "", "  "); err == nil {
				_ = s.store.WriteJobArtifact(j.ID, "job.json", b)
			}
			return info, true
		}
		// A worker grabbed it between our state read and the Remove; fall
		// through to the running path.
		fallthrough
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	info := j.info()
	s.mu.Unlock()
	return info, true
}

// Shutdown drains the daemon: stop accepting submissions, cancel
// everything still queued, let running jobs finish within
// Config.DrainTimeout (or ctx, whichever ends first), then cancel
// stragglers and wait for the pool to exit. Artifacts of every started
// job are flushed before Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.queue.Close()
	dropped := s.queue.Drain()
	s.mu.Lock()
	for _, j := range dropped {
		if j.State == StateQueued {
			s.setStateLocked(j, StateCanceled)
			j.Finished = time.Now()
			j.Error = "server draining"
			s.reg.Add("serve.jobs_completed", 1, trace.Label("outcome", string(StateCanceled)))
		}
	}
	s.publishQueueGauges()
	s.stateGaugesLocked()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var timer <-chan time.Time
	if s.cfg.DrainTimeout > 0 {
		t := time.NewTimer(s.cfg.DrainTimeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-done:
		return nil
	case <-timer:
	case <-ctx.Done():
	}

	// Grace expired: cancel in-flight jobs. Cancellation is cooperative
	// at epoch boundaries, so the workers exit promptly.
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.State == StateRunning && j.cancel != nil {
			j.cancelRequested = true
			j.cancel()
		}
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// ---- HTTP API ----

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs                submit (202; 400 invalid, 429 full, 503 draining)
//	GET    /jobs                list all jobs, submission order
//	GET    /jobs/{id}           one job
//	DELETE /jobs/{id}           cancel (202 while in flight, 200 if terminal)
//	GET    /jobs/{id}/trace     streamed Chrome trace (409 until terminal)
//	GET    /jobs/{id}/stats     stats artifact
//	GET    /jobs/{id}/recording stored recording (dplog binary)
//	GET    /jobs/{id}/profile   guest pprof profile (jobs submitted with
//	                            guest_profile; 409 until terminal)
//	GET    /jobs/{id}/diff      state-diff artifact of a debug_diff job
//	                            (409 until terminal, 404 for other kinds)
//	POST   /jobs/{id}/pin       pin the job's recording against GC
//	DELETE /jobs/{id}/pin       remove the pin
//	GET    /recordings/{id}/epochs/{range}
//	                            standalone dplog holding epochs n or n..m
//	                            (400 bad range, 404 no job/recording,
//	                            416 epochs outside the log)
//	GET    /admin/store         storage-tier stats (recordings, bytes)
//	POST   /admin/gc            run retention GC; body {"max_age_ms":..,
//	                            "max_bytes":.., "dry_run":..}, returns the
//	                            GC report
//	GET    /metrics             Prometheus text format
//	GET    /healthz             liveness + drain state
//
// With Config.EnablePprof, net/http/pprof is additionally mounted under
// /debug/pprof for host-side profiling of the daemon itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) { mux.Handle(pattern, s.metered(pattern, h)) }
	handle("POST /jobs", s.handleSubmit)
	handle("GET /jobs", s.handleList)
	handle("GET /jobs/{id}", s.withJob(s.handleGet))
	handle("DELETE /jobs/{id}", s.handleCancel)
	for name, a := range artifacts {
		handle("GET /jobs/{id}/"+name, s.withJob(a.serve(s)))
	}
	handle("GET /jobs/{id}/recording", s.withJob(s.handleRecording))
	handle("POST /jobs/{id}/pin", s.withJob(s.handlePin))
	handle("DELETE /jobs/{id}/pin", s.withJob(s.handleUnpin))
	handle("GET /recordings/{id}/epochs/{range}", s.withJob(s.handleEpochRange))
	handle("GET /admin/store", s.handleStoreStats)
	handle("POST /admin/gc", s.handleGC)
	handle("GET /metrics", s.reg.Handler().ServeHTTP)
	handle("GET /healthz", s.handleHealthz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// statusWriter remembers the status code a handler sent.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// metered wraps one route's handler so that every request counts in
// http.requests{route,code} and its wall-clock time lands in
// http.duration_ms{route}. The route label is the registration pattern —
// bounded cardinality, whatever ids the paths carry. Requests no pattern
// matches (the mux's own 404/405) are not counted.
func (s *Server) metered(pattern string, h http.HandlerFunc) http.Handler {
	route := trace.Label("route", pattern)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK // a handler that wrote nothing
		}
		s.reg.Add("http.requests", 1, route, trace.Label("code", sw.code))
		s.reg.Observe("http.duration_ms", time.Since(start).Milliseconds(), route)
	})
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	info, err := s.Submit(sp)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, info)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueClosed):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]Info, 0, len(s.order))
	for _, j := range s.order {
		infos = append(infos, j.info())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": infos})
}

// withJob resolves the route's {id} for h and answers 404 itself when no
// such job is registered.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.getJob(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
			return
		}
		h(w, r, j)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, j *Job) {
	writeJSON(w, http.StatusOK, s.jobInfo(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	code := http.StatusAccepted
	if info.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

// artifact is one file of a job's directory served verbatim at
// GET /jobs/{id}/<name>.
type artifact struct {
	file, ctype string
	// absent, when set, returns why a job with this spec never has the
	// file (404), or "" when it does or will.
	absent func(j *Job) string
	// pending, when set, is what becomes of the file while the job is
	// not terminal; the request is refused with 409 until then.
	pending string
}

var artifacts = map[string]artifact{
	"trace": {file: "trace.json", ctype: "application/json",
		pending: "the trace streams until the job finishes"},
	"stats": {file: "stats.json", ctype: "application/json"},
	"profile": {file: "profile.pb", ctype: "application/octet-stream",
		absent: func(j *Job) string {
			if j.Spec.GuestProfile {
				return ""
			}
			return fmt.Sprintf("job %s was not submitted with guest_profile", j.ID)
		},
		pending: "the profile is written when the job finishes"},
	"diff": {file: "diff.json", ctype: "application/json",
		absent: func(j *Job) string {
			if j.Spec.Kind == KindDebugDiff {
				return ""
			}
			return fmt.Sprintf("job %s is a %s job, not debug_diff", j.ID, j.Spec.Kind)
		},
		pending: "the diff is written when the job finishes"},
}

func (a artifact) serve(s *Server) func(http.ResponseWriter, *http.Request, *Job) {
	return func(w http.ResponseWriter, r *http.Request, j *Job) {
		if a.absent != nil {
			if why := a.absent(j); why != "" {
				writeErr(w, http.StatusNotFound, "%s", why)
				return
			}
		}
		if a.pending != "" {
			if st := s.jobState(j); !st.Terminal() {
				writeErr(w, http.StatusConflict, "job %s is %s; %s", j.ID, st, a.pending)
				return
			}
		}
		w.Header().Set("Content-Type", a.ctype)
		http.ServeFile(w, r, s.store.JobArtifact(j.ID, a.file))
	}
}

func (s *Server) handleRecording(w http.ResponseWriter, r *http.Request, j *Job) {
	// Stream through the store's lazy handle: the recording inflates block
	// by block instead of materializing in the heap.
	h, err := s.store.OpenRecordingByJob(j.ID)
	if err != nil {
		writeErr(w, http.StatusNotFound, "job %s has no stored recording (state %s)", j.ID, s.jobState(j))
		return
	}
	defer h.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(h.Size()))
	w.Header().Set("X-Recording-Digest", s.store.RecordingRef(j.ID))
	_, _ = io.Copy(w, io.NewSectionReader(h, 0, h.Size()))
}

// handlePin marks a job's recording as protected from retention GC.
// Pinning is durable (a marker in the job's artifact directory) and
// idempotent.
func (s *Server) handlePin(w http.ResponseWriter, r *http.Request, j *Job) {
	if err := s.store.Pin(j.ID); err != nil {
		writeErr(w, http.StatusInternalServerError, "pinning job %s: %v", j.ID, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "pinned": true})
}

func (s *Server) handleUnpin(w http.ResponseWriter, r *http.Request, j *Job) {
	if err := s.store.Unpin(j.ID); err != nil {
		writeErr(w, http.StatusInternalServerError, "unpinning job %s: %v", j.ID, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "pinned": false})
}

func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.store.Stats()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "store stats: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// gcRequest is the POST /admin/gc body; zero fields mean "no limit"
// (only orphans are swept), dry_run previews without deleting.
type gcRequest struct {
	MaxAgeMS int64 `json:"max_age_ms"`
	MaxBytes int64 `json:"max_bytes"`
	DryRun   bool  `json:"dry_run"`
}

func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	var req gcRequest
	if r.Body != nil && r.ContentLength != 0 {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid gc request: %v", err)
			return
		}
	}
	if req.MaxAgeMS < 0 || req.MaxBytes < 0 {
		writeErr(w, http.StatusBadRequest, "max_age_ms and max_bytes must be >= 0")
		return
	}
	rep, err := s.store.GC(store.Policy{
		MaxAge:   time.Duration(req.MaxAgeMS) * time.Millisecond,
		MaxBytes: req.MaxBytes,
		DryRun:   req.DryRun,
	})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "gc: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	n := len(s.jobs)
	busy := s.busy
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"jobs":        n,
		"workers":     s.cfg.Workers,
		"busy":        busy,
		"queue_depth": s.queue.Len(),
	})
}
