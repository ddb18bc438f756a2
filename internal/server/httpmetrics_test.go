package server_test

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"doubleplay/internal/dptrace"
	"doubleplay/internal/server"
)

// TestHTTPRequestMetrics drives a record + replay-by-id session with a
// known number of requests per route and checks that /metrics accounts for
// exactly them: http.requests by registration pattern and status code, one
// http.duration_ms observation per request, the replay's slice-loop
// counter, and an exposition promlint accepts.
func TestHTTPRequestMetrics(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})

	recID := submit(t, ts, fastSpec())
	waitDone(t, s, ts, recID)
	repID := submit(t, ts, map[string]any{"kind": "replay", "recording_job": recID, "mode": "sequential"})
	waitDone(t, s, ts, repID)
	for i := 0; i < 3; i++ {
		if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+repID+"/stats", nil); code != http.StatusOK {
			t.Fatalf("GET stats: %d", code)
		}
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/no-such-job", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", map[string]any{"kind": "nonsense"}); code != http.StatusBadRequest {
		t.Fatalf("POST bad spec: %d", code)
	}
	if resp, err := http.Get(ts.URL + "/no/such/route"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unrouted path: %v %v", resp, err)
	}

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: %d %v", resp.StatusCode, err)
		}
		return string(body)
	}
	scrape() // a scrape is counted once it has been served: visible in the next
	text := scrape()
	if problems := dptrace.Promlint(text); len(problems) > 0 {
		t.Fatalf("promlint: %v", problems)
	}
	value := func(series string) int {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\d+)$`).FindStringSubmatch(text)
		if m == nil {
			return -1
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	for series, want := range map[string]int{
		`doubleplay_http_requests{route="POST /jobs",code="202"}`:           2,
		`doubleplay_http_requests{route="POST /jobs",code="400"}`:           1,
		`doubleplay_http_requests{route="GET /jobs/{id}/stats",code="200"}`: 3,
		`doubleplay_http_requests{route="GET /jobs/{id}",code="404"}`:       1,
		`doubleplay_http_requests{route="GET /metrics",code="200"}`:         1,
		`doubleplay_http_duration_ms_count{route="POST /jobs"}`:             3,
		`doubleplay_http_duration_ms_count{route="GET /jobs/{id}/stats"}`:   3,
	} {
		if got := value(series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
	// waitDone polled GET /jobs/{id} an unknown number of times, all 200.
	if got := value(`doubleplay_http_requests{route="GET /jobs/{id}",code="200"}`); got < 2 {
		t.Errorf("GET /jobs/{id} 200s = %d, want the polls of two jobs", got)
	}
	if regexp.MustCompile(`no/such/route`).MatchString(text) {
		t.Error("an unrouted path became a label value")
	}
	if got := value(`doubleplay_replay_loop_instrs{workload="pbzip"}`); got <= 0 {
		t.Errorf("replay.loop_instrs = %d after a sequential replay", got)
	}
	if got := value(`doubleplay_record_loop_instrs{workload="pbzip"}`); got <= 0 {
		t.Errorf("record.loop_instrs = %d after a recording", got)
	}
	instrs, windows := value(`doubleplay_record_window_instrs{workload="pbzip"}`), value(`doubleplay_record_windows{workload="pbzip"}`)
	if instrs <= 0 || windows <= 0 || windows > instrs {
		t.Errorf("record.window_instrs = %d in record.windows = %d after a recording", instrs, windows)
	}
	if got := value(`doubleplay_record_window_aborts{workload="pbzip",reason="conflict"}`); got != 0 {
		t.Errorf("record.window_aborts{reason=conflict} = %d for a race-free guest", got)
	}
	if t.Failed() {
		t.Log(text)
	}
}
