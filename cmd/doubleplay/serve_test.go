package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"doubleplay/internal/clitest"
	"doubleplay/internal/dptrace"
	"doubleplay/internal/server"
	"doubleplay/internal/store"
	"doubleplay/internal/trace"
)

// TestServe runs `doubleplay serve` as a child process and speaks HTTP to
// it. Three recordings go in: racey, and kvdb under two seeds. The racey
// one replays by id and its served trace must agree with the trace the CLI
// records for the same seed. The kvdb pair exercises the store: one
// object per recording, compressed at rest, read back byte-exactly,
// ranges equal to offline `log extract`, and a pin that survives a
// retention GC. The store gauges on /metrics must equal the /admin/store
// walk throughout. SIGTERM must drain to exit 0, and the offline store
// tools must then find the swept store clean.
func TestServe(t *testing.T) {
	bin := clitest.Build(t, ".")
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	data := path("dpdata")
	logf, err := os.Create(path("serve.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	daemonLog := func() string { b, _ := os.ReadFile(path("serve.log")); return string(b) }
	srv := exec.Command(bin, "serve", "-listen", "127.0.0.1:0", "-data", data, "-addr-file", path("addr"), "-pool", "2")
	srv.Stdout, srv.Stderr = logf, logf
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	running := true
	defer func() {
		if running {
			srv.Process.Kill()
			srv.Wait()
		}
	}()
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(20 * time.Millisecond) {
		if addr, err := os.ReadFile(path("addr")); err == nil && bytes.HasSuffix(addr, []byte("\n")) {
			base = "http://" + strings.TrimSpace(string(addr))
		} else if time.Now().After(deadline) {
			t.Fatalf("the daemon never wrote its address:\n%s", daemonLog())
		}
	}

	do := func(method, url, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		return resp, b
	}
	call := func(method, url, body string, want int, v any) []byte {
		t.Helper()
		resp, b := do(method, url, body)
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %d, want %d: %s", method, url, resp.StatusCode, want, b)
		}
		if v != nil {
			if err := json.Unmarshal(b, v); err != nil {
				t.Fatalf("%s %s: %v", method, url, err)
			}
		}
		return b
	}
	submit := func(spec string) string {
		t.Helper()
		var info server.Info
		call("POST", "/jobs", spec, http.StatusAccepted, &info)
		return info.ID
	}
	wait := func(id string) *server.ResultSummary {
		t.Helper()
		var info server.Info
		for deadline := time.Now().Add(2 * time.Minute); !info.State.Terminal(); time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s", id, info.State)
			}
			call("GET", "/jobs/"+id, "", http.StatusOK, &info)
		}
		if info.State != server.StateDone || info.Result == nil {
			t.Fatalf("job %s ended %s: %s\n%s", id, info.State, info.Error, daemonLog())
		}
		return info.Result
	}
	// The gauges are running totals and /admin/store walks the directories:
	// they must agree whenever nothing is in flight.
	gaugesMatchWalk := func(when string) store.StatsReport {
		t.Helper()
		var walk store.StatsReport
		call("GET", "/admin/store", "", http.StatusOK, &walk)
		gauges := map[string]float64{}
		for _, line := range strings.Split(string(call("GET", "/metrics", "", http.StatusOK, nil)), "\n") {
			if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "doubleplay_store_") {
				gauges[f[0]], _ = strconv.ParseFloat(f[1], 64)
			}
		}
		for name, w := range map[string]int64{
			"recordings": int64(walk.Recordings), "logical_bytes": walk.LogicalBytes, "stored_bytes": walk.StoredBytes,
		} {
			if g, ok := gauges["doubleplay_store_"+name]; !ok || int64(g) != w {
				t.Fatalf("%s: gauge doubleplay_store_%s = %v (present %v), /admin/store says %d", when, name, g, ok, w)
			}
		}
		return walk
	}

	racey := submit(`{"kind":"record","workload":"racey","workers":2,"seed":11}`)
	kvA := submit(`{"kind":"record","workload":"kvdb","workers":2,"seed":11}`)
	kvB := submit(`{"kind":"record","workload":"kvdb","workers":2,"seed":12}`)
	results := map[string]*server.ResultSummary{racey: wait(racey), kvA: wait(kvA), kvB: wait(kvB)}
	walk := gaugesMatchWalk("after three recordings")

	// Each recording reads back byte-exactly: the body hashes to the digest
	// the daemon advertises, and that is the digest the job reported.
	raw := map[string][]byte{}
	var logical int64
	for id, res := range results {
		resp, body := do("GET", "/jobs/"+id+"/recording", "")
		sum := sha256.Sum256(body)
		digest := "sha256-" + hex.EncodeToString(sum[:])
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Recording-Digest") != digest || res.Recording != digest {
			t.Fatalf("job %s: status %d, body hashes to %s, header says %q, job says %q",
				id, resp.StatusCode, digest, resp.Header.Get("X-Recording-Digest"), res.Recording)
		}
		raw[id] = body
		logical += int64(len(body))
	}

	// One object per recording, compressed below its raw bytes, and nothing
	// of the chunk layout: no manifests/, only objects among the objects.
	if walk.Recordings != 3 || walk.LogicalBytes != logical || walk.StoredBytes >= logical {
		t.Fatalf("/admin/store %+v, want 3 recordings of %d bytes stored in fewer", walk, logical)
	}
	if _, err := os.Stat(filepath.Join(data, "manifests")); !os.IsNotExist(err) {
		t.Fatalf("a manifests/ directory exists: %v", err)
	}
	objects, _ := filepath.Glob(filepath.Join(data, "chunks", "*", "*"))
	for _, obj := range objects {
		if b, err := os.ReadFile(obj); err != nil || !bytes.HasPrefix(b, []byte("DPRO")) {
			t.Fatalf("%s is not a recording object (%v)", obj, err)
		}
	}
	for id, res := range results {
		if _, err := os.Stat(filepath.Join(data, "chunks", res.Recording[7:9], res.Recording)); err != nil {
			t.Fatalf("job %s: no object file: %v", id, err)
		}
	}
	if len(objects) != 3 {
		t.Fatalf("%d object files for three distinct recordings: %v", len(objects), objects)
	}

	// An epoch range served through the store's handle equals offline
	// extraction from the downloaded recording.
	if err := os.WriteFile(path("a.dplog"), raw[kvA], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := clitest.Run(t, bin, "", "log", "extract", "-log", path("a.dplog"), "-epochs", "1..2", "-o", path("sub.dplog")); code != 0 {
		t.Fatalf("log extract: exit %d: %s", code, stderr)
	}
	offline, _ := os.ReadFile(path("sub.dplog"))
	if served := call("GET", "/recordings/"+kvA+"/epochs/1..2", "", http.StatusOK, nil); !bytes.Equal(served, offline) {
		t.Fatalf("HTTP epoch range (%d bytes) differs from log extract (%d bytes)", len(served), len(offline))
	}

	// Replay by id reproduces each recorded final hash, epoch-parallel and
	// sequentially.
	replay := func(id, mode string) {
		t.Helper()
		rep := wait(submit(`{"kind":"replay","recording_job":"` + id + `","mode":"` + mode + `"}`))
		if rep.FinalHash != results[id].FinalHash {
			t.Fatalf("%s replay of %s: final hash %s, recorded %s", mode, id, rep.FinalHash, results[id].FinalHash)
		}
	}
	replay(racey, "parallel")
	replay(kvA, "sequential")

	// The served trace agrees epoch for epoch with the CLI's trace of the
	// same recording, and /metrics lints clean.
	if code, _, stderr := clitest.Run(t, bin, "", "record", "-w", "racey", "-workers", "2", "-seed", "11", "-trace", path("cli.json")); code != 0 {
		t.Fatalf("record: exit %d: %s", code, stderr)
	}
	served, err := trace.ParseJSON(bytes.NewReader(call("GET", "/jobs/"+racey+"/trace", "", http.StatusOK, nil)))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := os.ReadFile(path("cli.json"))
	if err != nil {
		t.Fatal(err)
	}
	cliEvs, err := trace.ParseJSON(bytes.NewReader(cli))
	if err != nil {
		t.Fatal(err)
	}
	if rep := dptrace.Diff("served", served, "cli", cliEvs); rep.FirstDivergent >= 0 {
		t.Fatalf("served trace diverges from the CLI trace at epoch %d", rep.FirstDivergent)
	}
	if problems := dptrace.Promlint(string(call("GET", "/metrics", "", http.StatusOK, nil))); len(problems) > 0 {
		t.Fatalf("/metrics: %v", problems)
	}

	// Pin one kvdb recording and age everything out: the pin survives
	// intact and still replays, the other two are reclaimed.
	call("POST", "/jobs/"+kvA+"/pin", "", http.StatusOK, nil)
	backdateRefs(t, data, racey, kvA, kvB)
	var gc store.GCReport
	call("POST", "/admin/gc", `{"max_age_ms": 1}`, http.StatusOK, &gc)
	if gc.ChunksRemoved != 2 {
		t.Fatalf("gc reclaimed %d recordings, want the two unpinned: %+v", gc.ChunksRemoved, gc)
	}
	gaugesMatchWalk("after the retention GC")
	call("GET", "/jobs/"+kvB+"/recording", "", http.StatusNotFound, nil)
	if kept := call("GET", "/jobs/"+kvA+"/recording", "", http.StatusOK, nil); !bytes.Equal(kept, raw[kvA]) {
		t.Fatal("the pinned recording changed across the GC")
	}
	replay(kvA, "sequential")

	// SIGTERM drains: exit 0.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	running = false
	if err := srv.Wait(); err != nil {
		t.Fatalf("daemon after SIGTERM: %v\n%s", err, daemonLog())
	}

	// The offline tools walk the drained store: intact, no stale temp file,
	// the one pinned survivor, and nothing left for a GC to take.
	offlineJSON := func(v any, argv ...string) {
		t.Helper()
		code, stdout, stderr := clitest.Run(t, bin, "", append(argv, "-data", data, "-json")...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s%s", argv, code, stdout, stderr)
		}
		if err := json.Unmarshal([]byte(stdout), v); err != nil {
			t.Fatalf("%v: %v", argv, err)
		}
	}
	if code, stdout, _ := clitest.Run(t, bin, "", "store", "fsck", "-data", data); code != 0 || !strings.Contains(stdout, "fsck: ok") {
		t.Fatalf("store fsck: exit %d:\n%s", code, stdout)
	}
	var fsck store.FsckReport
	offlineJSON(&fsck, "store", "fsck")
	var stats store.StatsReport
	offlineJSON(&stats, "store", "stats")
	var dry store.GCReport
	offlineJSON(&dry, "store", "gc", "-dry-run")
	if !fsck.OK() || fsck.StaleTemps != 0 || stats.Recordings != 1 || dry.ChunksRemoved != 0 {
		t.Fatalf("drained store: fsck %+v, stats %+v, gc -dry-run %+v", fsck, stats, dry)
	}
}

// backdateRefs sets the mtime of each job's recording ref an hour back, so
// a retention GC with a one-millisecond max age takes every unpinned one:
// a ref published within the millisecond before the GC would be kept.
func backdateRefs(t *testing.T, root string, ids ...string) {
	t.Helper()
	st, err := store.Open(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	for _, id := range ids {
		if err := os.Chtimes(st.JobArtifact(id, "recording.ref"), old, old); err != nil {
			t.Fatal(err)
		}
	}
}
