package server_test

// End-to-end coverage of the storage-tier API surface: recordings
// compressed at rest, pinning, retention GC, and the store-stats endpoint.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"doubleplay/internal/server"
	"doubleplay/internal/store"
)

func getRecording(t *testing.T, url string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Recording-Digest")
}

func TestStorageTierPinGCAndStats(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})

	// Two recordings of the same workload at different seeds: two objects,
	// each smaller on disk than its raw bytes.
	spec := func(seed int) map[string]any {
		return map[string]any{"kind": "record", "workload": "kvdb", "workers": 2, "seed": seed}
	}
	idA := submit(t, ts, spec(11))
	idB := submit(t, ts, spec(12))
	waitDone(t, s, ts, idA)
	waitDone(t, s, ts, idB)

	codeA, dataA, digA := getRecording(t, ts.URL+"/jobs/"+idA+"/recording")
	codeB, dataB, _ := getRecording(t, ts.URL+"/jobs/"+idB+"/recording")
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("GET recordings: %d, %d", codeA, codeB)
	}
	if store.Digest(dataA) != digA {
		t.Fatalf("recording A bytes do not hash to the advertised digest")
	}

	code, stats := doJSON(t, "GET", ts.URL+"/admin/store", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /admin/store: %d %v", code, stats)
	}
	logical := int64(stats["logical_bytes"].(float64))
	stored := int64(stats["stored_bytes"].(float64))
	if logical != int64(len(dataA)+len(dataB)) || stats["recordings"].(float64) != 2 {
		t.Fatalf("stats %v, want 2 recordings of %d logical bytes", stats, len(dataA)+len(dataB))
	}
	if stored >= logical {
		t.Fatalf("nothing compressed at rest: stored %d >= logical %d", stored, logical)
	}

	// Pin A, then age everything out: A survives, B is collected. Both refs
	// are back-dated first, because a ref published within the millisecond
	// before the GC is not older than its one-millisecond max age.
	if code, v := doJSON(t, "POST", ts.URL+"/jobs/"+idA+"/pin", nil); code != http.StatusOK || v["pinned"] != true {
		t.Fatalf("POST pin: %d %v", code, v)
	}
	old := time.Now().Add(-time.Hour)
	for _, id := range []string{idA, idB} {
		if err := os.Chtimes(s.Store().JobArtifact(id, "recording.ref"), old, old); err != nil {
			t.Fatal(err)
		}
	}
	code, rep := doJSON(t, "POST", ts.URL+"/admin/gc", map[string]any{"max_age_ms": 1})
	if code != http.StatusOK {
		t.Fatalf("POST /admin/gc: %d %v", code, rep)
	}
	if rep["pinned"].(float64) != 1 || rep["recordings_removed"].(float64) != 1 {
		t.Fatalf("gc report: %v", rep)
	}
	codeA, againA, _ := getRecording(t, ts.URL+"/jobs/"+idA+"/recording")
	if codeA != http.StatusOK || !bytes.Equal(againA, dataA) {
		t.Fatalf("pinned recording damaged by GC (status %d)", codeA)
	}
	if codeB, _, _ := getRecording(t, ts.URL+"/jobs/"+idB+"/recording"); codeB != http.StatusNotFound {
		t.Fatalf("collected recording still served: %d", codeB)
	}

	// A survivor still replays by id after the sweep.
	repID := submit(t, ts, map[string]any{"kind": "replay", "recording_job": idA, "mode": "sequential"})
	waitDone(t, s, ts, repID)

	// Epoch-range extraction reads through the store's handle.
	resp, err := http.Get(ts.URL + "/recordings/" + idA + "/epochs/0..1")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET epochs after GC: %v (status %v)", err, resp.Status)
	}
	resp.Body.Close()

	// Unpin, collect again: A goes too, and the store ends empty.
	if code, v := doJSON(t, "DELETE", ts.URL+"/jobs/"+idA+"/pin", nil); code != http.StatusOK || v["pinned"] != false {
		t.Fatalf("DELETE pin: %d %v", code, v)
	}
	if code, rep = doJSON(t, "POST", ts.URL+"/admin/gc", map[string]any{"max_age_ms": 1}); code != http.StatusOK {
		t.Fatalf("second gc: %d %v", code, rep)
	}
	code, stats = doJSON(t, "GET", ts.URL+"/admin/store", nil)
	if code != http.StatusOK || stats["recordings"].(float64) != 0 || stats["stored_bytes"].(float64) != 0 {
		t.Fatalf("store not empty after full GC: %v", stats)
	}

	// Malformed GC requests are rejected.
	if code, _ := doJSON(t, "POST", ts.URL+"/admin/gc", map[string]any{"max_age_ms": -1}); code != http.StatusBadRequest {
		t.Fatalf("negative max_age_ms accepted: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs/nope/pin", nil); code != http.StatusNotFound {
		t.Fatalf("pin of unknown job: %d", code)
	}
}

// gcLoop runs unbounded-policy collections on the server's store back to
// back until stop is closed, and returns when the loop has ended.
func gcLoop(t *testing.T, s *server.Server, stop <-chan struct{}) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Store().GC(store.Policy{}); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
		}
	}()
	return wg.Wait
}

// recordBatch submits n record jobs at distinct seeds and waits for all of
// them to end, returning the ids of the done ones and the other infos.
func recordBatch(t *testing.T, s *server.Server, ts *httptest.Server, firstSeed, n int) (done []string, notDone []map[string]any) {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		spec := fastSpec()
		spec["seed"] = firstSeed + i
		ids = append(ids, submit(t, ts, spec))
	}
	for _, id := range ids {
		if v := waitState(t, s, ts, id, terminal); v["state"] == "done" {
			done = append(done, id)
		} else {
			notDone = append(notDone, v)
		}
	}
	return done, notDone
}

// replayAll checks the store is intact and that every given record job
// serves its recording and replays by id.
func replayAll(t *testing.T, s *server.Server, ts *httptest.Server, ids []string) {
	t.Helper()
	if rep, err := s.Store().Fsck(); err != nil || !rep.OK() {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
	for _, id := range ids {
		if code, _, _ := getRecording(t, ts.URL+"/jobs/"+id+"/recording"); code != http.StatusOK {
			t.Fatalf("done job %s: GET recording: %d", id, code)
		}
		waitDone(t, s, ts, submit(t, ts, map[string]any{"kind": "replay", "recording_job": id, "mode": "sequential"}))
	}
}

// TestGCLoopNeverDanglesARef collects without pause while record jobs store
// their recordings, from two loops, so a collection is always queued on the
// store mutex when a put lets it go. A job's recording and its ref are one
// store operation, so no collection lands between them: every job finishes
// done, and every one serves its recording and replays by id.
func TestGCLoopNeverDanglesARef(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 32})
	stop := make(chan struct{})
	wait1, wait2 := gcLoop(t, s, stop), gcLoop(t, s, stop)
	done, notDone := recordBatch(t, s, ts, 20, 24)
	close(stop)
	wait1()
	wait2()
	for _, v := range notDone {
		t.Errorf("job %v: state %v, error %v", v["id"], v["state"], v["error"])
	}
	replayAll(t, s, ts, done)
}
