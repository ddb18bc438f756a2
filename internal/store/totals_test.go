package store_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"doubleplay/internal/store"
	"doubleplay/internal/trace"
)

// gaugesEqualStats asserts that the three published store.* gauges, as
// WritePrometheus renders them, equal what the Stats walk finds on disk at
// this moment, as do the totals behind them.
func gaugesEqualStats(t *testing.T, s *store.Store, reg *trace.Registry, step string) {
	t.Helper()
	want, err := s.Stats()
	if err != nil {
		t.Fatalf("%s: Stats: %v", step, err)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) int64 {
		for _, line := range strings.Split(prom.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, _ := strconv.ParseFloat(v, 64)
				return int64(f)
			}
		}
		return 0 // never set
	}
	got := store.StatsReport{
		Recordings:   int(gauge("doubleplay_store_recordings")),
		LogicalBytes: gauge("doubleplay_store_logical_bytes"),
		StoredBytes:  gauge("doubleplay_store_stored_bytes"),
	}
	if got != *want || s.Totals() != *want {
		t.Fatalf("%s: gauges drifted from the walk\n gauges %+v\n totals %+v\n  stats %+v", step, got, s.Totals(), *want)
	}
}

// TestTotalsEqualStatsAfterEveryStep is what licenses deleting the per-put
// walk: through a seeded interleaving of every operation that changes the
// store, the running totals behind the gauges equal the Stats walk after
// every single step.
func TestTotalsEqualStatsAfterEveryStep(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			reg := trace.NewRegistry()
			s, err := store.Open(dir, reg)
			if err != nil {
				t.Fatal(err)
			}
			var jobs []string   // jobs that hold a ref
			var stored [][]byte // everything ever put through PutRecording
			junk := func() []byte {
				b := make([]byte, 1+rng.Intn(3000))
				rng.Read(b)
				return b
			}
			putRef := func(data []byte) {
				d, err := s.PutRecording(data)
				if err != nil {
					t.Fatalf("PutRecording: %v", err)
				}
				stored = append(stored, data)
				if rng.Intn(10) < 7 { // the rest stay unreferenced, for GC to sweep
					job := fmt.Sprintf("job%03d", len(stored))
					if err := s.SetRecordingRef(job, d); err != nil {
						t.Fatalf("SetRecordingRef: %v", err)
					}
					jobs = append(jobs, job)
				}
			}
			for step := 0; step < 150; step++ {
				var what string
				switch op := rng.Intn(12); op {
				case 0, 1, 2: // new (or, by collision, present) recording
					what = "put"
					putRef(encode(testRecording(uint64(1+rng.Intn(8)), 1+rng.Intn(5))))
				case 3: // present put, or a re-put of something GC collected
					what = "re-put"
					if len(stored) > 0 {
						putRef(stored[rng.Intn(len(stored))])
					}
				case 4, 5: // not a dplog, or half of one: refused, and nothing moves
					what = "refused put"
					data := junk()
					if rng.Intn(2) == 0 {
						full := encode(testRecording(uint64(1+rng.Intn(8)), 2))
						data = full[:len(full)/2]
					}
					if _, err := s.PutRecording(data); err == nil {
						t.Fatal("PutRecording stored bytes that are not a recording")
					}
				case 6, 7:
					what = "pin/unpin"
					if len(jobs) > 0 {
						job := jobs[rng.Intn(len(jobs))]
						if rng.Intn(2) == 0 {
							err = s.Pin(job)
						} else {
							err = s.Unpin(job)
						}
						if err != nil {
							t.Fatalf("pin/unpin %s: %v", job, err)
						}
					}
				case 8, 9, 10:
					var pol store.Policy
					switch rng.Intn(3) {
					case 1:
						pol.MaxAge = time.Hour
						for _, job := range jobs { // age a random half of the refs
							if rng.Intn(2) == 0 {
								old := time.Now().Add(-48 * time.Hour)
								_ = os.Chtimes(s.JobArtifact(job, "recording.ref"), old, old) // the ref may be gone already
							}
						}
					case 2:
						pol.MaxBytes = int64(1 + rng.Intn(40000))
					}
					pol.DryRun = op == 8
					what = fmt.Sprintf("GC %+v", pol)
					if _, err := s.GC(pol); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				case 11:
					what = "reopen"
					reg = trace.NewRegistry()
					if s, err = store.Open(dir, reg); err != nil {
						t.Fatal(err)
					}
				}
				gaugesEqualStats(t, s, reg, fmt.Sprintf("step %d (%s)", step, what))
			}
			if rep, err := s.Fsck(); err != nil || !rep.OK() {
				t.Fatalf("fsck after the run: %+v, %v", rep, err)
			}
		})
	}
}

// TestTotalsExactOnAdoptedOrphan: a put that finds its recording already
// on disk as an orphan — a crash between put and ref, then a restart —
// creates nothing and counts nothing, because the walk at Open counted the
// object already. The totals never trail the walk.
func TestTotalsExactOnAdoptedOrphan(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, trace.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	data := encode(testRecording(1, 4))
	if _, err := s.PutRecording(data); err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry()
	if s, err = store.Open(dir, reg); err != nil {
		t.Fatal(err)
	}
	gaugesEqualStats(t, s, reg, "reopened over an orphan")
	if tot := s.Totals(); tot.Recordings != 1 || tot.LogicalBytes != int64(len(data)) {
		t.Fatalf("orphan not counted: %+v", tot)
	}
	put(t, s, "jobA", data) // adopts the orphan, creates nothing
	gaugesEqualStats(t, s, reg, "after adopting the orphan")
	if _, err := s.GC(store.Policy{}); err != nil {
		t.Fatal(err)
	}
	gaugesEqualStats(t, s, reg, "after GC")
}

// TestRefRefusedOnceRecordingCollected is the put → GC → ref reproducer: a
// collection between PutRecording and SetRecordingRef sweeps the still
// unreferenced recording, and the ref must then be refused rather than
// written to nothing.
func TestRefRefusedOnceRecordingCollected(t *testing.T) {
	s := open(t)
	data := encode(testRecording(1, 4))
	d, err := s.PutRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC(store.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksRemoved != 1 {
		t.Fatalf("unreferenced recording not swept: %+v", rep)
	}
	if err := s.SetRecordingRef("jobA", d); !errors.Is(err, store.ErrNoRecording) {
		t.Fatalf("SetRecordingRef after the sweep: %v, want ErrNoRecording", err)
	}
	if s.RecordingRef("jobA") != "" {
		t.Fatal("a refused ref was written anyway")
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.OK() {
		t.Fatalf("dangling ref: %+v, %v", fsck, err)
	}
	// The caller's remedy: put again, then the ref lands.
	put(t, s, "jobA", data)
	if back, err := readRecording(s, "jobA"); err != nil || string(back) != string(data) {
		t.Fatalf("recording after re-put: %v", err)
	}
}

// TestRefDuringSweepWaitsAndIsRefused writes the ref while a GC is between
// mark and sweep. The write must wait for the store mutex — it is not in the
// mark, so landing now would leave it dangling — and be refused afterwards.
func TestRefDuringSweepWaitsAndIsRefused(t *testing.T) {
	s := open(t)
	d, err := s.PutRecording(encode(testRecording(1, 4)))
	if err != nil {
		t.Fatal(err)
	}
	refErr := make(chan error, 1)
	s.SetSweepHook(func() {
		go func() { refErr <- s.SetRecordingRef("jobA", d) }()
		// Time for an unserialized write to land before the sweep.
		time.Sleep(20 * time.Millisecond)
		if s.RecordingRef("jobA") != "" {
			t.Error("ref written while GC held the store mutex")
		}
	})
	rep, err := s.GC(store.Policy{})
	s.SetSweepHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksRemoved != 1 {
		t.Fatalf("gc report: %+v", rep)
	}
	if err := <-refErr; !errors.Is(err, store.ErrNoRecording) {
		t.Fatalf("SetRecordingRef racing the sweep: %v, want ErrNoRecording", err)
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.OK() {
		t.Fatalf("dangling ref: %+v, %v", fsck, err)
	}
}

func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(de.Name(), ".tmp-") {
			found = append(found, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()

	// The shard directory does not exist yet: created on demand.
	path := filepath.Join(dir, "ns", "ab", "file")
	if err := store.WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatalf("write into a missing directory: %v", err)
	}
	// And the common case, the directory present, replacing the file.
	if err := store.WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatalf("second write: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "two" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// A write that cannot land (the destination is a non-empty directory)
	// reports the error and leaves no temp file.
	blocked := filepath.Join(dir, "ns", "ab", "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFileAtomic(blocked, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	// A parent that cannot be created (a file is in the way) is an error
	// too, not a loop.
	if err := store.WriteFileAtomic(filepath.Join(path, "sub", "file"), []byte("x")); err == nil {
		t.Fatal("write below a regular file succeeded")
	}
	if left := tmpFiles(t, dir); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}
