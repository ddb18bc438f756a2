package server_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"doubleplay/internal/profile"
	"doubleplay/internal/server"
)

// fetchProfile downloads a job's guest-profile artifact.
func fetchProfile(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/profile")
	if err != nil {
		t.Fatalf("GET profile: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET profile: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET profile: %v", err)
	}
	return data
}

func TestGuestProfileArtifactLifecycle(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})

	// A profiled record job: the artifact appears only once the job is
	// terminal — before that the endpoint tells the client to come back.
	spec := slowSpec()
	spec["guest_profile"] = true
	recID := submit(t, ts, spec)
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+recID+"/profile", nil); code != http.StatusConflict {
		t.Fatalf("GET profile before terminal: %d, want 409", code)
	}
	recInfo := waitDone(t, s, ts, recID)

	links, _ := recInfo["links"].(map[string]any)
	if links == nil || links["profile"] == nil {
		t.Fatalf("profiled job advertises no profile link: %v", recInfo)
	}
	res := recInfo["result"].(map[string]any)
	if n, _ := res["guest_stacks"].(float64); n <= 0 {
		t.Fatalf("result guest_stacks = %v, want > 0", res["guest_stacks"])
	}

	recData := fetchProfile(t, ts, recID)
	recProf, err := profile.ParsePprof(recData)
	if err != nil {
		t.Fatalf("served profile does not parse: %v", err)
	}
	if recProf.NumSamples() == 0 || recProf.TotalCycles() <= 0 {
		t.Fatalf("served profile is empty: %d stacks, %d cycles",
			recProf.NumSamples(), recProf.TotalCycles())
	}

	// Replaying the stored recording with profiling regenerates the
	// record-time profile byte for byte, in every replay mode.
	for _, mode := range []map[string]any{
		{"mode": "sequential"},
		{"mode": "parallel"},
		{"mode": "sparse", "stride": 4},
	} {
		spec := map[string]any{"kind": "replay", "recording_job": recID, "guest_profile": true}
		for k, v := range mode {
			spec[k] = v
		}
		repID := submit(t, ts, spec)
		waitDone(t, s, ts, repID)
		if repData := fetchProfile(t, ts, repID); !bytes.Equal(repData, recData) {
			t.Fatalf("replay %v profile differs from record profile", mode)
		}
	}
}

// TestGuestProfileVerifyJobChecksIdentity: a verify job fails unless every
// replay it makes, the sequential one and the one its mode selects,
// regenerates the recording's guest profile byte for byte.
func TestGuestProfileVerifyJobChecksIdentity(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 1})
	for _, mode := range []map[string]any{
		{"mode": "parallel"},
		{"mode": "sparse", "stride": 2},
	} {
		spec := map[string]any{"kind": "verify", "workload": "fft", "workers": 2, "guest_profile": true}
		for k, v := range mode {
			spec[k] = v
		}
		id := submit(t, ts, spec)
		v := waitDone(t, s, ts, id) // fails if a replay profile != record profile
		res := v["result"].(map[string]any)
		if n, _ := res["guest_stacks"].(float64); n <= 0 {
			t.Fatalf("%v: verify result guest_stacks = %v, want > 0", mode, res["guest_stacks"])
		}
		prof, err := profile.ParsePprof(fetchProfile(t, ts, id))
		if err != nil {
			t.Fatalf("%v: verify profile does not parse: %v", mode, err)
		}
		if prof.Name != "fft" {
			t.Fatalf("%v: profile program = %q, want fft", mode, prof.Name)
		}
	}
}

func TestGuestProfileAbsentWithoutFlag(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 1})
	id := submit(t, ts, fastSpec())
	v := waitDone(t, s, ts, id)
	if links, _ := v["links"].(map[string]any); links["profile"] != nil {
		t.Fatalf("unprofiled job advertises a profile link: %v", links)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/profile", nil); code != http.StatusNotFound {
		t.Fatalf("GET profile for unprofiled job: %d, want 404", code)
	}
}

func TestPprofEndpointsGatedByConfig(t *testing.T) {
	// Off by default: the debug surface must not exist.
	_, off := newTestServer(t, server.Config{Workers: 1})
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(off.URL + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without -pprof: %d, want 404", p, resp.StatusCode)
		}
	}

	// Opt-in: the standard pprof index and heap profile respond.
	_, on := newTestServer(t, server.Config{Workers: 1, EnablePprof: true})
	resp, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET pprof index: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index: status %d, body %q", resp.StatusCode, body)
	}
	resp, err = http.Get(on.URL + "/debug/pprof/heap")
	if err != nil {
		t.Fatalf("GET heap profile: %v", err)
	}
	heap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(heap) == 0 {
		t.Fatalf("heap profile: status %d, %d bytes", resp.StatusCode, len(heap))
	}
}
