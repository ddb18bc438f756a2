package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/server"
	"doubleplay/internal/trace"
	"doubleplay/internal/workloads"
)

// TestStoredReplayMatchesCheckpointPlan pins what a parallel or sparse
// replay by id produces to the library's reference over the same stored
// log: rebuild every epoch-start checkpoint (replay.CheckpointsFrom),
// thin them, and replay from them. stats.json must carry the same
// replay.Result, and trace.json and profile.pb the same bytes.
func TestStoredReplayMatchesCheckpointPlan(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})
	const workers, seed = 2, 11
	recID := submit(t, ts, map[string]any{"kind": "record", "workload": "kvdb", "workers": workers, "seed": seed})
	waitDone(t, s, ts, recID)
	get := func(id, artifact string) []byte {
		t.Helper()
		code, data, _ := getRecording(t, ts.URL+"/jobs/"+id+"/"+artifact)
		if code != http.StatusOK {
			t.Fatalf("GET %s of %s: status %d", artifact, id, code)
		}
		return data
	}
	rd, err := dplog.OpenReaderBytes(get(recID, "recording"))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumSections() < 5 {
		t.Fatalf("recording has %d epochs, want several segments at stride 4", rd.NumSections())
	}
	prog := workloads.Get("kvdb").Build(workloads.Params{Workers: workers, Seed: seed}).Prog
	src := replay.FromReader(rd)
	all, err := replay.CheckpointsFrom(context.Background(), prog, src, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		mode   string
		stride int
	}{{"parallel", 0}, {"sparse", 2}, {"sparse", 4}} {
		t.Run(fmt.Sprintf("%s-%d", tc.mode, tc.stride), func(t *testing.T) {
			id := submit(t, ts, map[string]any{
				"kind": "replay", "recording_job": recID, "mode": tc.mode, "stride": tc.stride, "guest_profile": true,
			})
			waitDone(t, s, ts, id)

			var trBuf bytes.Buffer
			sink := trace.NewStreamSink(&trBuf, 0)
			prof := profile.NewProfile("")
			want, err := replay.Run(context.Background(), prog, src, replay.Options{
				Boundaries: replay.Thin(all, tc.stride), CPUs: workers, Trace: sink, Profile: prof,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}

			var got replay.Result
			if err := json.Unmarshal(get(id, "stats"), &got); err != nil {
				t.Fatal(err)
			}
			if got != *want {
				t.Errorf("stats.json = %+v, library plan %+v", got, *want)
			}
			if !bytes.Equal(get(id, "trace"), trBuf.Bytes()) {
				t.Errorf("trace.json differs from the library plan's trace")
			}
			if !bytes.Equal(get(id, "profile"), prof.MarshalPprof()) {
				t.Errorf("profile.pb differs from the library plan's profile")
			}
		})
	}
}

// TestReplaySpecAgreesWithRecording holds replay jobs to the one rule for
// a replay's parameters: the recording's header names the workload,
// workers and seed and its record job the scale, so a minimal spec
// replays it and reports what it replayed, a spec that repeats them is
// accepted, and a spec field that disagrees fails the job naming the
// field and both values.
func TestReplaySpecAgreesWithRecording(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 16})
	recID := submit(t, ts, map[string]any{"kind": "record", "workload": "racey", "workers": 2, "seed": 11})
	recHash := finalHash(t, waitDone(t, s, ts, recID))

	for _, tc := range []struct {
		fields map[string]any
		err    string // substring; empty for a job that must finish
	}{
		{map[string]any{}, ""},
		{map[string]any{"workload": "racey", "workers": 2, "seed": 11, "scale": 1}, ""},
		{map[string]any{"workload": "kvdb"}, "workload kvdb disagrees with the log's racey"},
		{map[string]any{"workers": 3}, "workers 3 disagrees with the log's 2"},
		{map[string]any{"seed": 12}, "seed 12 disagrees with the log's 11"},
		{map[string]any{"scale": 2}, fmt.Sprintf("scale 2 disagrees with recording_job %s's 1", recID)},
	} {
		spec := map[string]any{"kind": "replay", "recording_job": recID}
		for k, v := range tc.fields {
			spec[k] = v
		}
		v := waitState(t, s, ts, submit(t, ts, spec), terminal)
		if tc.err != "" {
			if msg, _ := v["error"].(string); v["state"] != "failed" || !strings.Contains(msg, tc.err) {
				t.Errorf("%v: state %v, error %q; want failed with %q", tc.fields, v["state"], msg, tc.err)
			}
			continue
		}
		if v["state"] != "done" {
			t.Fatalf("%v: state %v (error %v), want done", tc.fields, v["state"], v["error"])
		}
		if got := finalHash(t, v); got != recHash {
			t.Errorf("%v: final hash %s, recorded %s", tc.fields, got, recHash)
		}
		sp := v["spec"].(map[string]any)
		if sp["workload"] != "racey" || sp["workers"] != 2.0 || sp["seed"] != 11.0 || sp["scale"] != 1.0 {
			t.Errorf("%v: the job reports it replayed %v", tc.fields, sp)
		}
	}
}
