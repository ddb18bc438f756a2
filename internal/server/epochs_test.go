package server_test

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/server"
	"doubleplay/internal/workloads"
)

// TestEpochRangeEndpoint pins the partial-fetch API: the endpoint ships a
// standalone dplog holding exactly the requested sections, byte-identical
// to the stored recording's.
func TestEpochRangeEndpoint(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	recID := submit(t, ts, fastSpec())
	waitDone(t, s, ts, recID)

	get := func(path string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header, body
	}

	// The full artifact, for comparing section bytes.
	code, _, full := get("/jobs/" + recID + "/recording")
	if code != http.StatusOK {
		t.Fatalf("GET recording: %d", code)
	}
	src, err := dplog.OpenReaderBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumSections() < 2 {
		t.Skipf("recording has only %d epochs", src.NumSections())
	}

	code, hdr, body := get("/recordings/" + recID + "/epochs/0..1")
	if code != http.StatusOK {
		t.Fatalf("GET epochs 0..1: %d (%s)", code, body)
	}
	if got := hdr.Get("X-Epoch-Range"); got != "0..1" {
		t.Fatalf("X-Epoch-Range = %q", got)
	}
	if got := hdr.Get("X-Epoch-Count"); got != "2" {
		t.Fatalf("X-Epoch-Count = %q", got)
	}
	sub, err := dplog.OpenReaderBytes(body)
	if err != nil {
		t.Fatalf("epoch-range response is not a readable dplog: %v", err)
	}
	if sub.Recovered() || sub.NumSections() != 2 {
		t.Fatalf("subset: recovered=%v sections=%d", sub.Recovered(), sub.NumSections())
	}
	for i := 0; i < 2; i++ {
		want, got := src.Sections()[i], sub.Sections()[i]
		if got.Epoch != want.Epoch || got.Stored != want.Stored || got.CRC != want.CRC || got.Flags != want.Flags {
			t.Fatalf("section %d differs from the stored recording: %+v vs %+v", i, got, want)
		}
		ep, err := sub.Seek(i)
		if err != nil {
			t.Fatal(err)
		}
		if ep.Index != i {
			t.Fatalf("subset epoch at %d has index %d", i, ep.Index)
		}
	}

	// A single-epoch request works too.
	code, _, body = get("/recordings/" + recID + "/epochs/1")
	if code != http.StatusOK {
		t.Fatalf("GET epochs/1: %d", code)
	}
	if one, err := dplog.OpenReaderBytes(body); err != nil || one.NumSections() != 1 {
		t.Fatalf("single-epoch response: sections=%v err=%v", one, err)
	}

	// Error paths: malformed range, out-of-bounds range, unknown job.
	if code, _, _ = get("/recordings/" + recID + "/epochs/x..y"); code != http.StatusBadRequest {
		t.Fatalf("malformed range: %d, want 400", code)
	}
	if code, _, _ = get("/recordings/" + recID + "/epochs/0..999999"); code != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("out-of-bounds range: %d, want 416", code)
	}
	if code, _, _ = get("/recordings/nope/epochs/0..1"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
}

// TestEpochRangeReplaysToItsEnd: a range from epoch 0 that stops short of
// the recording's end is a recording of its epochs. Its header ends where
// its last epoch ends, so it replays to its end by every plan.
func TestEpochRangeReplaysToItsEnd(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	recID := submit(t, ts, map[string]any{"kind": "record", "workload": "kvdb", "workers": 2, "seed": 11})
	waitDone(t, s, ts, recID)
	resp, err := http.Get(ts.URL + "/recordings/" + recID + "/epochs/0..3")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET epochs/0..3: %d, %v (%s)", resp.StatusCode, err, body)
	}
	path := filepath.Join(t.TempDir(), "range.dplog")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := dplog.OpenReader(f, int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumSections() != 4 {
		t.Fatalf("range holds %d sections", rd.NumSections())
	}
	last, err := rd.Seek(3)
	if err != nil {
		t.Fatal(err)
	}

	prog := workloads.Get("kvdb").Build(workloads.Params{Workers: 2, Scale: 1, Seed: 11}).Prog
	ctx := context.Background()
	bs, err := replay.CheckpointsFrom(ctx, prog, replay.FromReader(rd), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, b := range bs {
			b.CP.Release()
		}
	}()
	for name, opt := range map[string]replay.Options{
		"sequential":     {},
		"epoch-parallel": {Boundaries: bs, CPUs: 2},
		"sparse":         {Boundaries: replay.Thin(bs, 2), CPUs: 2},
		"stride":         {Stride: 2, CPUs: 2},
	} {
		res, err := replay.Run(ctx, prog, replay.FromReader(rd), opt)
		if err != nil {
			t.Fatalf("%s replay of the range: %v", name, err)
		}
		if res.FinalHash != last.EndHash {
			t.Fatalf("%s replay ends in %016x, epoch 3 in %016x", name, res.FinalHash, last.EndHash)
		}
	}
}
