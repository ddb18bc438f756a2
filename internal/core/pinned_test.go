package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/trace"
	"doubleplay/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// pinRow is one recording TestRecordPinned fingerprints: a workload build
// (scale 1) and the options it records under. Workers, RecordCPUs, Seed,
// Trace and Metrics are filled in from the row.
type pinRow struct {
	name    string
	wl      string
	workers int
	seed    int64
	opt     Options
	profile bool
}

func pinRows() []pinRow {
	var rows []pinRow
	for _, name := range workloads.Names() {
		rows = append(rows, pinRow{name: name, wl: name, workers: 2, seed: 11, opt: Options{SpareCPUs: 2}})
	}
	rerun := Options{SpareCPUs: 3, EpochCycles: 6000, DisableSyncEnforcement: true}
	return append(rows,
		pinRow{name: "sigping/certified", wl: "sigping", workers: 2, seed: 11,
			opt: Options{SpareCPUs: 2, VerifyPolicy: VerifyCertified}},
		pinRow{name: "pbzip/adaptive", wl: "pbzip", workers: 4, seed: 11,
			opt: Options{SpareCPUs: 1, Adaptive: true, AdaptiveMinSpares: 1, AdaptiveMaxSpares: 4}},
		pinRow{name: "kvdb/utilized", wl: "kvdb", workers: 2, seed: 11, opt: Options{SpareCPUs: 0}},
		pinRow{name: "webserve/rerun", wl: "webserve", workers: 3, seed: 3, opt: rerun},
		pinRow{name: "webserve-racy/rerun", wl: "webserve-racy", workers: 3, seed: 3, opt: rerun},
		pinRow{name: "racey/races", wl: "racey", workers: 2, seed: 11,
			opt: Options{SpareCPUs: 2, DetectRaces: true}},
		pinRow{name: "webserve-racy/profile", wl: "webserve-racy", workers: 3, seed: 3, opt: rerun, profile: true},
		pinRow{name: "webserve-racy/growth", wl: "webserve-racy", workers: 3, seed: 3,
			opt: Options{SpareCPUs: 3, EpochGrowth: 1.5}},
	)
}

// TestRecordPinned fingerprints everything a recording produces — Stats,
// hashes, the encoded log, every boundary, the divergence forensics, the
// race reports, the trace, the metrics and the guest profile — over rows
// that between them take every commit path: verified, certified, adopted
// and re-run epochs, an adaptive controller decision, epochs that grow and
// a divergence that resets them, the utilized pipeline, race detection and
// profiling. A change to the recorder's structure must leave every line of
// testdata/record.golden as it is; only a change meant to move a recording
// rewrites it, with -update. Every row's log must also be the one the
// encoders Record's single walk replaced would write (checkEncodedOnce).
func TestRecordPinned(t *testing.T) {
	var got bytes.Buffer
	var adopted, reruns, skipped, decisions, grown int
	for _, r := range pinRows() {
		bt := workloads.Get(r.wl).Build(workloads.Params{Workers: r.workers, Scale: 1, Seed: r.seed})
		var js, metrics bytes.Buffer
		sink, reg := trace.NewStreamSink(&js, 0), trace.NewRegistry()
		opt := r.opt
		opt.Workers, opt.RecordCPUs, opt.Seed = r.workers, r.workers, r.seed
		opt.Trace, opt.Metrics = sink, reg
		if r.profile {
			opt.Profile = profile.NewProfile(bt.Prog.Name)
		}
		res, err := Record(bt.Prog, bt.World, opt)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		checkEncodedOnce(t, r.name, res)
		var bounds bytes.Buffer
		for _, b := range res.Boundaries {
			binary.Write(&bounds, binary.LittleEndian, [3]int64{int64(b.Index), b.Cycle, int64(b.Hash)})
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := reg.WritePrometheus(&metrics); err != nil {
			t.Fatal(err)
		}
		// The record.window* counters count how the host ran the
		// thread-parallel execution, which a change to sched.Parallel's
		// windows moves while every guest-visible output stays; they get
		// their own column so such a change rewrites that column alone.
		var prom, win bytes.Buffer
		for _, line := range bytes.SplitAfter(metrics.Bytes(), []byte("\n")) {
			if bytes.Contains(line, []byte("_record_window")) {
				win.Write(line)
			} else {
				prom.Write(line)
			}
		}
		var pprof []byte
		if opt.Profile != nil {
			pprof = opt.Profile.MarshalPprof()
		}
		fmt.Fprintf(&got, "%s stats=%+v final=%016x out=%016x log=%x bounds=%x div=%q races=%d trace=%x prom=%x win=%x pprof=%x\n",
			r.name, res.Stats, res.FinalHash, res.OutputHash, sha256.Sum256(dplog.MarshalBytes(res.Recording)),
			sha256.Sum256(bounds.Bytes()), fmt.Sprintf("%+v", res.Divergences), len(res.Races),
			sha256.Sum256(js.Bytes()), sha256.Sum256(prom.Bytes()), sha256.Sum256(win.Bytes()), sha256.Sum256(pprof))
		adopted += res.Stats.HashRecoveries
		reruns += res.Stats.RerunRecoveries
		skipped += res.Stats.VerifySkipped
		decisions += res.Stats.SpareGrows + res.Stats.SpareShrinks
		if opt.EpochGrowth > 1 && res.Stats.Divergences > 0 {
			// The same build at a fixed length cuts more epochs, or none grew.
			fixed := r.opt
			fixed.Workers, fixed.RecordCPUs, fixed.Seed, fixed.EpochGrowth = r.workers, r.workers, r.seed, 1
			bt := workloads.Get(r.wl).Build(workloads.Params{Workers: r.workers, Scale: 1, Seed: r.seed})
			ref, err := Record(bt.Prog, bt.World, fixed)
			if err != nil {
				t.Fatalf("%s at a fixed length: %v", r.name, err)
			}
			if len(res.Recording.Epochs) < len(ref.Recording.Epochs) {
				grown++
			}
			ref.ReleaseCheckpoints()
		}
		res.ReleaseCheckpoints()
	}
	if adopted == 0 || reruns == 0 || skipped == 0 || decisions == 0 || grown == 0 {
		t.Fatalf("the rows miss a commit path: %d adopted, %d re-run, %d certified epochs, %d controller decisions, %d grown rows that diverged",
			adopted, reruns, skipped, decisions, grown)
	}

	path := filepath.Join("testdata", "record.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run TestRecordPinned -update` to create it)", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gl {
		if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("recording changed, first at line %d:\n got  %s\n want %s",
				i+1, gl[i], bytes.Join(wl[i:min(i+1, len(wl))], nil))
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("record table has %d lines, golden %d", len(gl), len(wl))
	}
}

// checkEncodedOnce holds the log Record encodes once, while it sizes it, to
// the encoders that walk replaced: Raw is MarshalBytesWith's uncompressed
// file byte for byte, ReplayBytes and FullBytes are what Sizes counts, and
// FileBytes is the length of MarshalBytes.
func checkEncodedOnce(t *testing.T, name string, res *Result) {
	t.Helper()
	rec, st := res.Recording, res.Stats
	replay, full := rec.Sizes()
	switch {
	case !bytes.Equal(res.Raw, dplog.MarshalBytesWith(rec, dplog.EncodeOptions{})):
		t.Errorf("%s: Raw differs from MarshalBytesWith's uncompressed file", name)
	case st.ReplayBytes != replay || st.FullBytes != full:
		t.Errorf("%s: ReplayBytes, FullBytes = %d, %d; Sizes says %d, %d", name, st.ReplayBytes, st.FullBytes, replay, full)
	case st.FileBytes != len(dplog.MarshalBytes(rec)):
		t.Errorf("%s: FileBytes = %d; MarshalBytes is %d bytes", name, st.FileBytes, len(dplog.MarshalBytes(rec)))
	}
}
