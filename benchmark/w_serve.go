package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/server"
	"doubleplay/internal/store"
	"doubleplay/internal/trace"
)

// pollEvery is the clients' job-status poll period — the longest sleep
// anywhere in the harness.
const pollEvery = 2 * time.Millisecond

// serveSize sizes serve-session.
type serveSize struct {
	programs      []string
	clients       int
	sessions      int // per client per round
	workers       int // guest workers (and spares) of every record job
	scale         int
	daemonWorkers int
	queueDepth    int
	stride        int
	downloadEvery int
}

var serveFull = serveSize{programs: ioPrograms, clients: 2, sessions: 4, workers: 4, scale: 1, daemonWorkers: 2, queueDepth: 16, stride: 4, downloadEvery: 4}

// serveObs is what a round's clients observed beside op latency.
type serveObs struct {
	lagMs    []float64 // observed-done minus the job's own finished stamp
	dlBytes  int64
	dlTime   time.Duration
	rejected int
	// For the re-drive: which program each op ran, and one finished record
	// job (with its spec) per program.
	opProg    map[int]string
	recordJob map[string]string
	recordG   map[string]guestSpec
}

// serveSession is the end-to-end workload: an in-process daemon behind real
// loopback HTTP, two closed-loop clients with one keep-alive connection
// each. A session submits a recording, waits, replays it by id two ways,
// fetches an epoch range and the stats — and the store and job table grow
// the whole time.
type serveSession struct {
	seed    int64
	size    serveSize
	dir     string
	srv     *server.Server
	httpSrv *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
	rates   interpRates

	mu  sync.Mutex
	obs serveObs
}

func newServeSession(seed int64, size serveSize) *serveSession {
	return &serveSession{seed: seed, size: size, rates: interpRates{}}
}

func (w *serveSession) name() string { return "serve-session" }

func (w *serveSession) nominalRound() time.Duration { return 1250 * time.Millisecond }

func (w *serveSession) setup() error {
	dir, err := os.MkdirTemp("", "dpbench-serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.srv, err = server.New(server.Config{DataDir: dir, Workers: w.size.daemonWorkers, QueueDepth: w.size.queueDepth})
	if err != nil {
		return err
	}
	w.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.httpSrv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	w.clients = nil
	for c := 0; c < w.size.clients; c++ {
		// One connection per client, kept alive: the load is two
		// connections, whatever the number of requests.
		w.clients = append(w.clients, &http.Client{
			Timeout:   opTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	// Canary: one full session per program proves the daemon records,
	// stores and replays before the clock starts.
	var rr roundResult
	for i, p := range w.size.programs {
		w.session(at{op: -1}, 0, w.clients[0], p, guestSeed(w.seed, 5, i), false, &rr)
	}
	if rr.dirty {
		return fmt.Errorf("canary session failed: %s", rr.failures[0])
	}
	return nil
}

func (w *serveSession) teardown() {
	if w.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.httpSrv.Shutdown(ctx)
		cancel()
		<-w.served
		w.httpSrv = nil
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.clients = nil
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.srv.Shutdown(ctx)
		cancel()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *serveSession) finish() finals {
	var f finals
	st, err := w.srv.Store().Stats()
	if err != nil {
		f.failures = append(f.failures, fmt.Sprintf("store stats: %v", err))
		return f
	}
	f.storedBytes, f.logicalBytes = st.StoredBytes, st.LogicalBytes
	return f
}

func (w *serveSession) round(tr *tracer, idx int) roundResult {
	w.mu.Lock()
	w.obs = serveObs{opProg: map[int]string{}, recordJob: map[string]string{}, recordG: map[string]guestSpec{}}
	w.mu.Unlock()
	first := 0
	if tr != nil {
		first = len(tr.spans)
	}

	parts := make([]roundResult, w.size.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < w.size.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane, endLane := tr.lane("bench.lane")
			defer endLane()
			rr := &parts[c]
			for k := 0; k < w.size.sessions; k++ {
				// n numbers every session of the run, so no two share a
				// guest seed and every put stores a new recording.
				n := (idx*w.size.clients+c)*w.size.sessions + k
				prog := w.size.programs[n%len(w.size.programs)]
				op := c*w.size.sessions + k
				a, end := lane.inOp(op).open("bench.op")
				t := time.Now()
				w.session(a, op, w.clients[c], prog, guestSeed(w.seed, 4, n), k%w.size.downloadEvery == 0, rr)
				end()
				rr.opDone(t)
			}
		}()
	}
	wg.Wait()

	var rr roundResult
	for _, p := range parts {
		rr.opMs = append(rr.opMs, p.opMs...)
		rr.failed += p.failed
		rr.failures = append(rr.failures, p.failures...)
		rr.instrs += p.instrs
		rr.logBytes += p.logBytes
		rr.logInstrs += p.logInstrs
	}
	// Both endpoints walk the whole job table, which grows all run long.
	lane, endLane := tr.lane("bench.lane")
	for _, ep := range []struct{ span, path string }{{"server.metrics", "/metrics"}, {"server.list", "/jobs"}} {
		lane.call(ep.span, func() {
			if _, code, err := w.get(w.clients[0], ep.path); err != nil || code != http.StatusOK {
				rr.fail("GET %s: code %d: %v", ep.path, code, err)
			}
		})
	}
	endLane()
	rr.settle()
	rr.wall = time.Since(t0)
	if tr != nil {
		rr.redrive = append(rr.redrive, func() { w.redrive(tr, first) })
	}
	return rr
}

// get fetches one path and returns the whole body, leaving the connection
// reusable.
func (w *serveSession) get(c *http.Client, path string) ([]byte, int, error) {
	resp, err := c.Get(w.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// submit posts one job spec. A refusal (429, 503) is an error like any other.
func (w *serveSession) submit(c *http.Client, sp server.Spec) (server.Info, error) {
	var info server.Info
	body, err := json.Marshal(sp)
	if err != nil {
		return info, err
	}
	resp, err := c.Post(w.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return info, err
	}
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			w.mu.Lock()
			w.obs.rejected++
			w.mu.Unlock()
		}
		return info, fmt.Errorf("POST /jobs: %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return info, json.Unmarshal(data, &info)
}

// await polls a job until it is terminal or the deadline passes.
func (w *serveSession) await(c *http.Client, id string, deadline time.Time) (server.Info, error) {
	var info server.Info
	for {
		body, code, err := w.get(c, "/jobs/"+id)
		if err != nil {
			return info, err
		}
		if code != http.StatusOK {
			return info, fmt.Errorf("GET /jobs/%s: %d", id, code)
		}
		info = server.Info{}
		if err := json.Unmarshal(body, &info); err != nil {
			return info, err
		}
		if info.State.Terminal() {
			if info.Finished != nil {
				lag := ms(time.Since(*info.Finished))
				w.mu.Lock()
				w.obs.lagMs = append(w.obs.lagMs, lag)
				w.mu.Unlock()
			}
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("job %s still %s after %s", id, info.State, opTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// job submits a spec and waits for it, recording the client's view (submit,
// wait) and, from the job's own timestamps, the daemon's (queue, run).
func (w *serveSession) job(a at, c *http.Client, sp server.Spec, runSpan string, deadline time.Time) (server.Info, error) {
	var info server.Info
	var err error
	a.call("server.submit", func() { info, err = w.submit(c, sp) })
	if err != nil {
		return info, err
	}
	waitAt, endWait := a.open("bench.wait")
	info, err = w.await(c, info.ID, deadline)
	endWait()
	if err != nil {
		return info, err
	}
	if info.State != server.StateDone {
		return info, fmt.Errorf("job %s %s: %s", info.ID, info.State, info.Error)
	}
	if info.Started != nil && info.Finished != nil {
		waitAt.model("server.queue", info.Started.Sub(info.Created))
		waitAt.model(runSpan, info.Finished.Sub(*info.Started))
	}
	return info, nil
}

// session is one op: record, replay by id sequentially and sparsely, fetch
// an epoch range and the stats, and now and then the whole recording.
func (w *serveSession) session(a at, op int, c *http.Client, prog string, seed int64, download bool, rr *roundResult) {
	deadline := time.Now().Add(opTimeout)
	g := guestSpec{Prog: prog, Workers: w.size.workers, Scale: w.size.scale, Seed: seed}
	rec, err := w.job(a, c, server.Spec{Kind: server.KindRecord, Workload: prog, Workers: g.Workers, Spares: g.Workers, Scale: g.Scale, Seed: seed}, "server.run.record", deadline)
	if err != nil {
		rr.fail("%s: record: %v", g, err)
		return
	}
	w.mu.Lock()
	if w.obs.opProg != nil { // nil during the set-up canary
		w.obs.opProg[op] = prog
		if _, ok := w.obs.recordJob[prog]; !ok {
			w.obs.recordJob[prog], w.obs.recordG[prog] = rec.ID, g
		}
	}
	w.mu.Unlock()
	for _, m := range []struct {
		mode, span string
		stride     int
	}{{server.ModeSequential, "server.run.seq", 0}, {server.ModeSparse, "server.run.sparse", w.size.stride}} {
		rep, err := w.job(a, c, server.Spec{Kind: server.KindReplay, RecordingJob: rec.ID, Mode: m.mode, Stride: m.stride}, m.span, deadline)
		switch {
		case err != nil:
			rr.fail("%s: %s replay: %v", g, m.mode, err)
			return
		case rep.Result == nil || rec.Result == nil || rep.Result.FinalHash != rec.Result.FinalHash:
			rr.fail("%s: %s replay final hash differs from the recording's", g, m.mode)
			return
		}
	}

	var body []byte
	var code int
	a.call("server.range", func() { body, code, err = w.get(c, "/recordings/"+rec.ID+"/epochs/2..5") })
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err == nil {
		_, err = dplog.OpenReaderBytes(body)
	}
	if err != nil {
		rr.fail("%s: epoch range: %v", g, err)
		return
	}

	var st core.Stats
	a.call("server.stats", func() { body, code, err = w.get(c, "/jobs/"+rec.ID+"/stats") })
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil || st.Retired == 0 {
		rr.fail("%s: stats: %v", g, err)
		return
	}
	// A session executes the guest three times that a client can see: the
	// recording and the two replays.
	rr.instrs += 3 * st.Retired
	rr.logInstrs += st.Retired
	rr.logBytes += int64(st.FileBytes)

	if download {
		d := a.call("server.download", func() { body, code, err = w.get(c, "/jobs/"+rec.ID+"/recording") })
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err == nil {
			_, err = dplog.OpenReaderBytes(body)
		}
		if err != nil {
			rr.fail("%s: download: %v", g, err)
			return
		}
		w.mu.Lock()
		w.obs.dlBytes += int64(len(body))
		w.obs.dlTime += d
		w.mu.Unlock()
	}
}

// servedParts is the in-library cost of what one program's three jobs do.
type servedParts struct {
	g                                  guestSpec
	build, record, traced, marshal     time.Duration
	put, open, seq, checkpoints, spars time.Duration
	instrs                             int64
}

// redriveJobs times, in the library and with the daemon idle, the calls a
// record job and the two replay jobs of one spec make: Build, core.Record
// with and without the streamed trace and registry every job carries,
// MarshalBytesWith, PutRecording into a scratch store, then the replay-by-id
// path over the daemon's own stored artifact.
func (w *serveSession) redriveJobs(g guestSpec, jobID string) (servedParts, error) {
	p := servedParts{g: g}
	p.build = timed(func() { g.build() })
	opts := g.recordOptions(g.Workers)

	bt := g.build()
	var res *core.Result
	var err error
	p.record = timed(func() { res, err = core.Record(bt.Prog, bt.World, opts) })
	if err != nil {
		return p, err
	}
	res.ReleaseCheckpoints()
	p.instrs = res.Stats.Retired

	f, err := os.CreateTemp(w.dir, "redrive-trace-*.json")
	if err != nil {
		return p, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	bt = g.build()
	opts.Trace, opts.Metrics = trace.NewStreamSink(f, 0), trace.NewRegistry()
	p.traced = timed(func() {
		var tres *core.Result
		if tres, err = core.Record(bt.Prog, bt.World, opts); err == nil {
			tres.ReleaseCheckpoints()
			err = opts.Trace.(*trace.StreamSink).Close()
		}
	})
	if err != nil {
		return p, err
	}

	var data []byte
	p.marshal = timed(func() { data = dplog.MarshalBytesWith(res.Recording, dplog.EncodeOptions{Compress: false}) })
	scratch, err := os.MkdirTemp(w.dir, "redrive-store-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(scratch)
	st, err := store.Open(scratch, trace.NewRegistry())
	if err != nil {
		return p, err
	}
	p.put = timed(func() { _, err = st.PutRecording(data) })
	if err != nil {
		return p, err
	}

	var h *store.Handle
	var rd *dplog.Reader
	p.open = timed(func() {
		if h, err = w.srv.Store().OpenRecordingByJob(jobID); err == nil {
			rd, err = dplog.OpenReader(h, h.Size())
		}
	})
	if err != nil {
		return p, err
	}
	defer h.Close()
	ctx := context.Background()
	p.seq = timed(func() { _, err = replay.SequentialReader(ctx, bt.Prog, rd, nil, nil) })
	if err != nil {
		return p, err
	}
	p.checkpoints = timed(func() {
		bs, cerr := replay.CheckpointsReader(ctx, bt.Prog, rd, nil)
		if err = cerr; err != nil {
			return
		}
		p.spars = timed(func() {
			_, err = replay.ParallelSparseReader(ctx, bt.Prog, rd, replay.Thin(bs, w.size.stride), g.Workers, nil, nil)
		})
		for _, b := range bs {
			b.CP.Release()
		}
	})
	p.checkpoints -= p.spars
	return p, err
}

// redrive hangs the in-library parts under every server.run span the round
// that began at span index first recorded, program by program.
func (w *serveSession) redrive(tr *tracer, first int) {
	w.mu.Lock()
	obs := w.obs
	w.mu.Unlock()
	parts := map[string]servedParts{}
	for prog, id := range obs.recordJob {
		if p, err := w.redriveJobs(obs.recordG[prog], id); err == nil {
			parts[prog] = p
		}
	}
	for i, n := first, len(tr.spans); i < n; i++ {
		s := tr.spans[i]
		p, ok := parts[obs.opProg[s.Op]]
		if !ok || !s.Model || !strings.HasPrefix(s.Name, "server.run.") {
			continue
		}
		a := tr.under(s.ID, s.Op)
		interp := time.Duration(w.rates.of(p.g) * float64(p.instrs))
		switch s.Name {
		case "server.run.record":
			a.model("workloads.Build", p.build)
			// Record interprets the guest twice: thread-parallel and
			// epoch-parallel.
			a.model("core.Record", p.record).model("vm.interp", 2*interp)
			a.model("trace.Stream", p.traced-p.record)
			a.model("dplog.Marshal", p.marshal)
			a.model("store.PutRecording", p.put)
		case "server.run.seq":
			a.model("store.OpenRecording", p.open)
			a.model("workloads.Build", p.build)
			a.model("replay.Sequential", p.seq).model("vm.interp", interp)
		case "server.run.sparse":
			a.model("store.OpenRecording", p.open)
			a.model("workloads.Build", p.build)
			a.model("replay.Checkpoints", p.checkpoints).model("vm.interp", interp)
			a.model("replay.ParallelSparse", p.spars)
		}
	}
}
