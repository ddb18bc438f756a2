package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"doubleplay/internal/server"
)

// fetchDiff downloads and parses a debug_diff job's diff.json artifact.
func fetchDiff(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/diff")
	if err != nil {
		t.Fatalf("GET diff: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET diff: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET diff: %v", err)
	}
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("diff.json does not parse: %v", err)
	}
	return v
}

// TestDebugDiffJob drives the divergence-forensics job kind end to end:
// record the racy workload under two seeds, bisect for the first
// divergent epoch, re-diff that exact boundary, and check the
// no-divergence and wrong-kind paths.
func TestDebugDiffJob(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 16})

	// The racy workload ignores its seed when building, so both
	// recordings start from identical states; the seeds only jitter the
	// recorded schedules, which is exactly what makes the races resolve
	// differently.
	recA := submit(t, ts, map[string]any{"kind": "record", "workload": "racey", "workers": 2, "seed": 1})
	waitDone(t, s, ts, recA)
	recB := submit(t, ts, map[string]any{"kind": "record", "workload": "racey", "workers": 2, "seed": 4})
	waitDone(t, s, ts, recB)

	id := submit(t, ts, map[string]any{
		"kind": "debug_diff", "recording_job": recA, "recording_job_b": recB,
	})
	v := waitDone(t, s, ts, id)

	links, _ := v["links"].(map[string]any)
	if links["diff"] == nil {
		t.Fatalf("debug_diff job advertises no diff link: %v", links)
	}
	if links["recording"] != nil {
		t.Fatalf("debug_diff job advertises a recording link it has no artifact for: %v", links)
	}
	res, _ := v["result"].(map[string]any)
	if res == nil {
		t.Fatalf("no result in %v", v)
	}
	first, ok := res["first_divergence"].(float64)
	if !ok || first < 1 {
		t.Fatalf("first_divergence = %v, want >= 1 (racy recordings share their initial state)", res["first_divergence"])
	}

	d := fetchDiff(t, ts, id)
	if d["diverged"] != true {
		t.Fatalf("diff.json diverged = %v, want true", d["diverged"])
	}
	if e, _ := d["epoch"].(float64); e != first {
		t.Fatalf("diff.json epoch %v != summary first_divergence %v", e, first)
	}
	inner, _ := d["diff"].(map[string]any)
	if inner == nil || inner["equal"] != false {
		t.Fatalf("diff.json carries no state diff: %v", d)
	}
	if w, _ := inner["words_differ"].(float64); w < 1 {
		t.Fatalf("state diff names no differing words: %v", inner)
	}

	// Diff the named boundary directly: same verdict.
	idAt := submit(t, ts, map[string]any{
		"kind": "debug_diff", "recording_job": recA, "recording_job_b": recB,
		"epoch": int(first),
	})
	vAt := waitDone(t, s, ts, idAt)
	resAt, _ := vAt["result"].(map[string]any)
	if got, _ := resAt["first_divergence"].(float64); got != first {
		t.Fatalf("epoch-pinned diff first_divergence = %v, want %v", resAt["first_divergence"], first)
	}

	// A recording against itself never diverges.
	idSame := submit(t, ts, map[string]any{
		"kind": "debug_diff", "recording_job": recA, "recording_job_b": recA,
	})
	vSame := waitDone(t, s, ts, idSame)
	resSame, _ := vSame["result"].(map[string]any)
	if resSame["first_divergence"] != nil {
		t.Fatalf("self-diff reports divergence: %v", resSame)
	}
	if d := fetchDiff(t, ts, idSame); d["diverged"] != false {
		t.Fatalf("self-diff diff.json diverged = %v, want false", d["diverged"])
	}

	// Each recording names its own program, and a pair of different
	// programs is refused rather than bisected.
	recK := submit(t, ts, map[string]any{"kind": "record", "workload": "kvdb", "workers": 2, "seed": 1})
	waitDone(t, s, ts, recK)
	vMixed := waitState(t, s, ts, submit(t, ts, map[string]any{
		"kind": "debug_diff", "recording_job": recA, "recording_job_b": recK,
	}), terminal)
	if msg, _ := vMixed["error"].(string); vMixed["state"] != "failed" ||
		!strings.Contains(msg, "runs racey at 2 workers, scale 1 but recording_job_b "+recK+" runs kvdb at 2 workers, scale 1") {
		t.Fatalf("debug_diff of racey and kvdb: state %v, error %q", vMixed["state"], msg)
	}

	// The diff endpoint is specific to debug_diff jobs.
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+recA+"/diff", nil); code != http.StatusNotFound {
		t.Fatalf("GET diff for a record job: %d, want 404", code)
	}

	// Validation: both recording references are required.
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", map[string]any{
		"kind": "debug_diff", "recording_job": recA,
	}); code != http.StatusBadRequest {
		t.Fatalf("debug_diff without recording_job_b: %d, want 400", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", map[string]any{
		"kind": "debug_diff", "recording_job": recA, "recording_job_b": "nope",
	}); code != http.StatusBadRequest {
		t.Fatalf("debug_diff with unknown recording_job_b: %d, want 400", code)
	}
}
