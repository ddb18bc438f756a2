package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"doubleplay/internal/dplog"
	"doubleplay/internal/dptrace"
	"doubleplay/internal/server"
	"doubleplay/internal/store"
	"doubleplay/internal/trace"
)

// fastSpec is a record job that finishes in well under a second.
func fastSpec() map[string]any {
	return map[string]any{"kind": "record", "workload": "pbzip", "workers": 2, "seed": 11}
}

// slowSpec is a record job that takes a couple of seconds of host time
// with epoch boundaries every few hundred simulated cycles — thousands
// of cancellation points.
func slowSpec() map[string]any {
	return map[string]any{
		"kind": "record", "workload": "pbzip", "workers": 2, "seed": 11,
		"scale": 6, "epoch_cycles": 300,
	}
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	var v map[string]any
	if len(data) > 0 {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%s %s: non-JSON body %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, v
}

func submit(t *testing.T, ts *httptest.Server, spec map[string]any) string {
	t.Helper()
	code, v := doJSON(t, "POST", ts.URL+"/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit %v: got %d, body %v", spec, code, v)
	}
	id, _ := v["id"].(string)
	if id == "" {
		t.Fatalf("submit: no id in %v", v)
	}
	return id
}

// waitState polls a job until pred is satisfied or the deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id string, pred func(state string) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, v := doJSON(t, "GET", ts.URL+"/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d %v", id, code, v)
		}
		if st, _ := v["state"].(string); pred(st) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s: state predicate not reached in time", id)
	return nil
}

func terminal(st string) bool {
	return st == "done" || st == "failed" || st == "canceled"
}

func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	v := waitState(t, ts, id, terminal)
	if st := v["state"]; st != "done" {
		t.Fatalf("job %s: state %v (error %v), want done", id, st, v["error"])
	}
	return v
}

func finalHash(t *testing.T, v map[string]any) string {
	t.Helper()
	res, _ := v["result"].(map[string]any)
	if res == nil {
		t.Fatalf("job info has no result: %v", v)
	}
	fh, _ := res["final_hash"].(string)
	if fh == "" || fh == strings.Repeat("0", 16) {
		t.Fatalf("job result has no final hash: %v", res)
	}
	return fh
}

// fetchTrace downloads and parses a terminal job's trace artifact.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) []trace.Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	evs, err := trace.ParseJSON(resp.Body)
	if err != nil {
		t.Fatalf("trace for %s does not parse: %v", id, err)
	}
	return evs
}

func TestEndToEndRecordThenReplayByID(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})

	recID := submit(t, ts, fastSpec())
	recInfo := waitDone(t, ts, recID)
	recHash := finalHash(t, recInfo)
	res := recInfo["result"].(map[string]any)
	if res["epochs"].(float64) <= 0 {
		t.Fatalf("record result has no epochs: %v", res)
	}
	digest, _ := res["recording"].(string)
	if !strings.HasPrefix(digest, "sha256-") {
		t.Fatalf("record result digest = %q", digest)
	}

	// The stored recording round-trips through dplog and matches the
	// advertised digest.
	resp, err := http.Get(ts.URL + "/jobs/" + recID + "/recording")
	if err != nil {
		t.Fatalf("GET recording: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET recording: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Recording-Digest"); got != digest {
		t.Fatalf("digest header %q != result digest %q", got, digest)
	}
	if store.Digest(data) != digest {
		t.Fatalf("served recording bytes do not hash to %s", digest)
	}
	rec, err := dplog.Unmarshal(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("served recording does not unmarshal: %v", err)
	}
	if rec.Program != "pbzip" {
		t.Fatalf("recording program = %q", rec.Program)
	}

	// The trace artifact is a complete Chrome trace with epoch spans.
	evs := fetchTrace(t, ts, recID)
	spans := 0
	for _, ev := range evs {
		if ev.Name == "epoch" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("record trace has no epoch spans (%d events)", len(evs))
	}

	// Replay the stored recording by job id in every mode; each must
	// reproduce the recorded final hash.
	for _, mode := range []map[string]any{
		{"mode": "sequential"},
		{"mode": "parallel"},
		{"mode": "sparse", "stride": 4},
	} {
		spec := map[string]any{"kind": "replay", "recording_job": recID}
		for k, v := range mode {
			spec[k] = v
		}
		repID := submit(t, ts, spec)
		repInfo := waitDone(t, ts, repID)
		if got := finalHash(t, repInfo); got != recHash {
			t.Fatalf("replay %v final hash %s != recorded %s", mode, got, recHash)
		}
		// Replay defaults its workload from the recording header.
		repSpec := repInfo["spec"].(map[string]any)
		if wl := repSpec["workload"]; wl != "pbzip" {
			t.Fatalf("replay spec workload = %v, want pbzip", wl)
		}
		if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+repID+"/stats", nil); code != http.StatusOK {
			t.Fatalf("GET stats for replay: %d", code)
		}
	}

	// GET /jobs lists all four in submission order.
	code, v := doJSON(t, "GET", ts.URL+"/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /jobs: %d", code)
	}
	jobs := v["jobs"].([]any)
	if len(jobs) != 4 {
		t.Fatalf("GET /jobs: %d jobs, want 4", len(jobs))
	}
	if first := jobs[0].(map[string]any); first["id"] != recID {
		t.Fatalf("GET /jobs order: first = %v, want %s", first["id"], recID)
	}
}

func TestVerifyJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	id := submit(t, ts, map[string]any{
		"kind": "verify", "workload": "fft", "workers": 2, "mode": "parallel",
	})
	v := waitDone(t, ts, id)
	finalHash(t, v)
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/stats", nil); code != http.StatusOK {
		t.Fatalf("GET stats: %d", code)
	}
}

func TestCertifiedVerifyPolicyJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})

	// sigping is certified race-free: the recorder must skip every epoch
	// and the stored recording must still replay by id.
	id := submit(t, ts, map[string]any{
		"kind": "record", "workload": "sigping", "workers": 2, "verify_policy": "certified",
	})
	v := waitDone(t, ts, id)
	res := v["result"].(map[string]any)
	if res["cert_status"] != "race-free" {
		t.Fatalf("cert_status = %v", res["cert_status"])
	}
	skipped, epochs := res["verify_skipped"].(float64), res["epochs"].(float64)
	if skipped == 0 || skipped != epochs {
		t.Fatalf("verify_skipped = %v of %v epochs", skipped, epochs)
	}
	rid := submit(t, ts, map[string]any{"kind": "replay", "recording_job": id})
	waitDone(t, ts, rid)

	// A racy workload under the same policy must fall back to full
	// verification.
	id = submit(t, ts, map[string]any{
		"kind": "record", "workload": "racey", "workers": 2, "verify_policy": "certified",
	})
	v = waitDone(t, ts, id)
	res = v["result"].(map[string]any)
	if res["cert_status"] != "possibly-racy" {
		t.Fatalf("racey cert_status = %v", res["cert_status"])
	}
	if _, ok := res["verify_skipped"]; ok {
		t.Fatalf("racey skipped verification: %v", res)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	cases := []map[string]any{
		{"kind": "record"},                                                    // no workload
		{"kind": "record", "workload": "nope"},                                // unknown workload
		{"kind": "replay"},                                                    // no recording_job
		{"kind": "replay", "recording_job": "absent"},                         // unknown job
		{"kind": "juggle", "workload": "pbzip"},                               // unknown kind
		{"kind": "record", "workload": "pbzip", "mode": "warp"},               // unknown mode
		{"kind": "record", "workload": "pbzip", "bogus_key": 1},               // unknown field
		{"kind": "record", "workload": "pbzip", "timeout_ms": -1},             // negative timeout
		{"kind": "record", "workload": "pbzip", "verify_policy": "sometimes"}, // unknown policy
	}
	for _, spec := range cases {
		if code, _ := doJSON(t, "POST", ts.URL+"/jobs", spec); code != http.StatusBadRequest {
			t.Errorf("submit %v: got %d, want 400", spec, code)
		}
	}
	// The trace is written in emission order, with nothing to tune: the
	// window and downsampling fields are refused by name.
	for _, field := range []string{"trace_window", "trace_min_span", "trace_counter_stride"} {
		spec := fastSpec()
		spec[field] = 8
		code, v := doJSON(t, "POST", ts.URL+"/jobs", spec)
		if msg, _ := v["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, field) {
			t.Errorf("submit with %s: got %d %q, want 400 naming the field", field, code, msg)
		}
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/absent", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job: got %d, want 404", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/jobs/absent", nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: got %d, want 404", code)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})

	running := submit(t, ts, slowSpec())
	waitState(t, ts, running, func(st string) bool { return st == "running" })

	queued := submit(t, ts, fastSpec()) // fills the queue
	req, _ := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(mustJSON(t, fastSpec())))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("third submit: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	// Once the pool catches up, submissions are accepted again.
	waitDone(t, ts, running)
	waitDone(t, ts, queued)
	waitDone(t, ts, submit(t, ts, fastSpec()))
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	id := submit(t, ts, slowSpec())
	waitState(t, ts, id, func(st string) bool { return st == "running" })

	// While running, the trace is still streaming: 409.
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("GET trace while running: got %d, want 409", resp.StatusCode)
	}

	code, _ := doJSON(t, "DELETE", ts.URL+"/jobs/"+id, nil)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE running job: got %d, want 202", code)
	}
	v := waitState(t, ts, id, terminal)
	if v["state"] != "canceled" {
		t.Fatalf("canceled job state = %v (error %v)", v["state"], v["error"])
	}
	// Cancellation is cooperative at epoch boundaries, and the trace is
	// flushed before the job turns terminal — it must parse.
	evs := fetchTrace(t, ts, id)
	if len(evs) == 0 {
		t.Fatalf("canceled job left an empty trace")
	}
	// Deleting a terminal job is an idempotent 200.
	if code, _ := doJSON(t, "DELETE", ts.URL+"/jobs/"+id, nil); code != http.StatusOK {
		t.Fatalf("DELETE terminal job: got %d, want 200", code)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	running := submit(t, ts, slowSpec())
	waitState(t, ts, running, func(st string) bool { return st == "running" })
	queued := submit(t, ts, fastSpec())

	code, v := doJSON(t, "DELETE", ts.URL+"/jobs/"+queued, nil)
	if code != http.StatusOK || v["state"] != "canceled" {
		t.Fatalf("DELETE queued job: got %d %v, want immediate canceled", code, v["state"])
	}
	doJSON(t, "DELETE", ts.URL+"/jobs/"+running, nil)
	waitState(t, ts, running, terminal)
}

func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	spec := slowSpec()
	spec["timeout_ms"] = 100
	id := submit(t, ts, spec)
	v := waitState(t, ts, id, terminal)
	if v["state"] != "failed" {
		t.Fatalf("timed-out job state = %v, want failed", v["state"])
	}
	if msg, _ := v["error"].(string); !strings.Contains(msg, "timed out") {
		t.Fatalf("timed-out job error = %q", msg)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, server.Config{
		Workers: 1, QueueDepth: 4, DrainTimeout: 60 * time.Second,
	})
	running := submit(t, ts, slowSpec())
	waitState(t, ts, running, func(st string) bool { return st == "running" })
	queued := submit(t, ts, fastSpec())

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The in-flight job finished normally; the queued one was canceled
	// without ever starting; new submissions are refused.
	_, rv := doJSON(t, "GET", ts.URL+"/jobs/"+running, nil)
	if rv["state"] != "done" {
		t.Fatalf("in-flight job after drain: %v (error %v), want done", rv["state"], rv["error"])
	}
	_, qv := doJSON(t, "GET", ts.URL+"/jobs/"+queued, nil)
	if qv["state"] != "canceled" {
		t.Fatalf("queued job after drain: %v, want canceled", qv["state"])
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", fastSpec()); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %d, want 503", code)
	}
	// The finished job's artifacts survived the drain.
	fetchTrace(t, ts, running)
}

func TestDrainCancelsStragglers(t *testing.T) {
	s, ts := newTestServer(t, server.Config{
		Workers: 1, DrainTimeout: 50 * time.Millisecond,
	})
	id := submit(t, ts, slowSpec())
	waitState(t, ts, id, func(st string) bool { return st == "running" })

	start := time.Now()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drain took %v — cancellation did not propagate", elapsed)
	}
	_, v := doJSON(t, "GET", ts.URL+"/jobs/"+id, nil)
	if v["state"] != "canceled" {
		t.Fatalf("straggler after short drain: %v, want canceled", v["state"])
	}
	fetchTrace(t, ts, id)
}

func TestMetricsConcurrentScrapes(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 2})
	id := submit(t, ts, slowSpec())

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("/metrics status %d", resp.StatusCode)
					return
				}
				if problems := dptrace.Promlint(string(body)); len(problems) > 0 {
					errs <- fmt.Errorf("promlint: %v", problems)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitDone(t, ts, id)

	// The scrape after completion carries the pool series.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"doubleplay_serve_jobs_submitted",
		"doubleplay_serve_jobs_completed",
		"doubleplay_serve_workers_busy",
		"doubleplay_serve_job_run_ms",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestStateGaugesMatchScan drives a seeded mix of submit, cancel-queued,
// cancel-running, finish and drain, and after every action compares the
// serve.jobs{state} gauges — published from per-state counts adjusted at
// each transition — with a fresh scan of the job table.
func TestStateGaugesMatchScan(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 64, DrainTimeout: 50 * time.Millisecond})
	check := func(after string) {
		t.Helper()
		if d := s.StateGaugeDrift(); d != "" {
			t.Fatalf("after %s: %s", after, d)
		}
	}
	check("start")
	rng := rand.New(rand.NewSource(7))
	var ids, slow []string
	cancelJob := func(id string) {
		t.Helper()
		if code, v := doJSON(t, "DELETE", ts.URL+"/jobs/"+id, nil); code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("cancel %s: %d %v", id, code, v)
		}
		check("cancel")
	}
	for i := 0; i < 40; i++ {
		switch op := rng.Intn(6); {
		case op <= 1 || len(ids) == 0:
			spec := fastSpec()
			spec["seed"] = 11 + i
			ids = append(ids, submit(t, ts, spec))
			check("submit")
		case op == 2:
			id := submit(t, ts, slowSpec())
			ids, slow = append(ids, id), append(slow, id)
			check("submit slow")
		case op <= 4: // queued, running or already terminal, as the dice fall
			cancelJob(ids[rng.Intn(len(ids))])
		default:
			// The slow jobs exist to be canceled, queued or running; nothing
			// waits out their seconds of run time.
			for _, id := range slow {
				cancelJob(id)
			}
			slow = nil
			waitState(t, ts, ids[rng.Intn(len(ids))], terminal)
			check("finish")
		}
	}
	// Drain with work still queued and running.
	for i := 0; i < 4; i++ {
		ids = append(ids, submit(t, ts, slowSpec()))
	}
	check("submit before drain")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx) // a drain that had to cancel stragglers reports it; the gauges are the test
	check("drain")
	var total float64
	for _, st := range []string{"queued", "running", "done", "failed", "canceled"} {
		total += s.Registry().Gauge("serve.jobs", trace.Label("state", st))
	}
	if int(total) != len(ids) {
		t.Fatalf("gauges sum to %v jobs, %d were submitted", total, len(ids))
	}
	for _, st := range []string{"queued", "running"} {
		if n := s.Registry().Gauge("serve.jobs", trace.Label("state", st)); n != 0 {
			t.Fatalf("%v jobs still %s after drain", n, st)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	code, v := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if code != http.StatusOK || v["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, v)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
