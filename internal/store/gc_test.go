package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"doubleplay/internal/store"
)

// put stores a recording under a job ref and returns its digest.
func put(t *testing.T, s *store.Store, job string, data []byte) string {
	t.Helper()
	d, err := s.PutRecording(data)
	if err != nil {
		t.Fatalf("PutRecording: %v", err)
	}
	if err := s.SetRecordingRef(job, d); err != nil {
		t.Fatalf("SetRecordingRef: %v", err)
	}
	return d
}

// age backdates a job's ref by two days.
func age(t *testing.T, s *store.Store, job string) {
	t.Helper()
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.JobArtifact(job, "recording.ref"), old, old); err != nil {
		t.Fatal(err)
	}
}

// TestGCKeepsLiveSharedChunksReclaimsOrphans: a recording two jobs share
// lives while either ref does; the aged job's ref goes, an object no live
// ref names goes, and so does one no ref ever named.
func TestGCKeepsLiveSharedChunksReclaimsOrphans(t *testing.T) {
	s := open(t)
	a := encode(testRecording(1, 6))
	b := encode(testRecording(2, 6))
	da := put(t, s, "jobA", a)
	if err := s.SetRecordingRef("jobC", da); err != nil {
		t.Fatal(err)
	}
	db := put(t, s, "jobB", b)
	orphan, err := s.PutRecording(encode(testRecording(3, 2)))
	if err != nil {
		t.Fatal(err)
	}

	// Age out jobB and one of the two refs to a.
	age(t, s, "jobB")
	age(t, s, "jobC")
	rep, err := s.GC(store.Policy{MaxAge: time.Hour})
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.LiveRecordings != 1 || rep.RefsRemoved != 2 || rep.ChunksRemoved != 2 || rep.BytesReclaimed <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	// jobA fully intact; jobB's recording and the orphan gone.
	back, err := readRecording(s, "jobA")
	if err != nil || !bytes.Equal(back, a) {
		t.Fatalf("jobA recording damaged by GC: %v", err)
	}
	if s.HasRecording(db) || s.HasRecording(orphan) {
		t.Fatal("an unreferenced recording survived GC")
	}
	if !s.HasRecording(da) {
		t.Fatal("jobA recording missing")
	}
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.OK() || fsck.OrphanRecordings != 0 || fsck.Recordings != 1 {
		t.Fatalf("fsck after GC: %+v", fsck)
	}
}

// TestHandleOutlivesGC opens a recording, lets a GC collect it mid-read,
// and reads the rest: the handle's open file outlives the object's name.
func TestHandleOutlivesGC(t *testing.T) {
	s := open(t)
	data := encode(testRecording(3, 120))
	d, err := s.PutRecording(data) // unreferenced: the next GC collects it
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.OpenRecording(d)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	got := make([]byte, h.Size())
	if _, err := h.ReadAt(got[:100], 0); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.GC(store.Policy{}); err != nil || rep.ChunksRemoved != 1 || s.HasRecording(d) {
		t.Fatalf("gc of the open recording: %+v, %v", rep, err)
	}
	if _, err := h.ReadAt(got[100:], 100); err != nil {
		t.Fatalf("read after the recording was collected: %v", err)
	}
	if store.Digest(got) != d {
		t.Fatal("read after the recording was collected returned other bytes")
	}
}

func TestGCPinnedSurvivesAgePolicy(t *testing.T) {
	s := open(t)
	a := encode(testRecording(1, 4))
	put(t, s, "jobA", a)
	if err := s.Pin("jobA"); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	age(t, s, "jobA")
	rep, err := s.GC(store.Policy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pinned != 1 || rep.LiveRecordings != 1 || rep.ChunksRemoved != 0 {
		t.Fatalf("pinned recording was collected: %+v", rep)
	}
	back, err := readRecording(s, "jobA")
	if err != nil || !bytes.Equal(back, a) {
		t.Fatalf("pinned recording unreadable: %v", err)
	}
	// Unpin, then the same policy collects it.
	if err := s.Unpin("jobA"); err != nil {
		t.Fatal(err)
	}
	rep, err = s.GC(store.Policy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksRemoved != 1 {
		t.Fatalf("unpinned aged recording not collected: %+v", rep)
	}
}

func TestGCSizeBudgetKeepsNewest(t *testing.T) {
	s := open(t)
	var data [3][]byte
	for i := range data {
		data[i] = encode(testRecording(uint64(10+i), 4))
		put(t, s, jobName(i), data[i])
		// Distinct mtimes, oldest first.
		ts := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(s.JobArtifact(jobName(i), "recording.ref"), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Budget fits roughly one recording: newest survives, older two go.
	rep, err := s.GC(store.Policy{MaxBytes: int64(len(data[2]) + 100)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveRecordings != 1 || rep.ChunksRemoved != 2 {
		t.Fatalf("size budget: %+v", rep)
	}
	if back, err := readRecording(s, jobName(2)); err != nil || !bytes.Equal(back, data[2]) {
		t.Fatalf("newest recording lost: %v", err)
	}
	if _, err := readRecording(s, jobName(0)); err == nil {
		t.Fatal("oldest recording survived size budget")
	}
}

func jobName(i int) string { return string(rune('a'+i)) + "-job" }

// TestGCSizeBudgetOrdersRefsPublishedInOneTick publishes refs faster than
// the filesystem's timestamp tick (a present put costs microseconds, a tick
// is milliseconds). Retention must still see them in publication order;
// jobs are listed oldest first, so refs that tie on mtime keep the oldest.
func TestGCSizeBudgetOrdersRefsPublishedInOneTick(t *testing.T) {
	s := open(t)
	const n = 8
	var digests []string
	var sizes []int64
	for i := 0; i < n; i++ {
		data := encode(testRecording(uint64(1+i), 3))
		d, err := s.PutRecording(data)
		if err != nil {
			t.Fatal(err)
		}
		digests, sizes = append(digests, d), append(sizes, int64(len(data)))
	}
	job := func(i int) string { return fmt.Sprintf("job%d", i) } // earlier refs list first
	// The job directories exist already, as for a job that has written
	// other artifacts: creating one would itself pull a fine-grained
	// timestamp and hide the tie.
	for i := range digests {
		if _, err := s.JobDir(job(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range digests {
		if err := s.SetRecordingRef(job(i), d); err != nil {
			t.Fatal(err)
		}
	}
	keep := n / 2
	var budget int64
	for _, sz := range sizes[n-keep:] {
		budget += sz
	}
	if _, err := s.GC(store.Policy{MaxBytes: budget}); err != nil {
		t.Fatal(err)
	}
	for i, d := range digests {
		if got, want := s.HasRecording(d), i >= n-keep; got != want {
			t.Errorf("recording %d (published %d of %d): kept=%v, want %v", i, i+1, n, got, want)
		}
	}
}

func TestGCDryRunRemovesNothing(t *testing.T) {
	s := open(t)
	a := encode(testRecording(1, 4))
	put(t, s, "jobA", a)
	age(t, s, "jobA")
	rep, err := s.GC(store.Policy{MaxAge: time.Hour, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DryRun || rep.ChunksRemoved != 1 || rep.RefsRemoved != 1 {
		t.Fatalf("dry run report: %+v", rep)
	}
	if back, err := readRecording(s, "jobA"); err != nil || !bytes.Equal(back, a) {
		t.Fatalf("dry run deleted data: %v", err)
	}
}

// TestPinDuringSweep races a Pin against a running GC: the pin blocks on
// the store mutex until the sweep finishes, so the GC outcome is decided
// by the mark phase alone and the store stays consistent either way.
func TestPinDuringSweep(t *testing.T) {
	s := open(t)
	put(t, s, "jobA", encode(testRecording(1, 4)))
	age(t, s, "jobA")
	pinned := make(chan error, 1)
	s.SetSweepHook(func() {
		go func() { pinned <- s.Pin("jobA") }()
		// Give the pin goroutine time to block on the mutex.
		time.Sleep(20 * time.Millisecond)
	})
	rep, err := s.GC(store.Policy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-pinned; err != nil {
		t.Fatalf("Pin during sweep: %v", err)
	}
	// One racing pin is the test; left installed, the hook would start
	// another during the second GC below that nothing waits for, still
	// writing into the temp dir while the test tears it down.
	s.SetSweepHook(nil)
	if rep.ChunksRemoved != 1 {
		t.Fatalf("aged recording not collected: %+v", rep)
	}
	// The late pin landed on a now-recording-less job. That is harmless:
	// fsck stays clean and a second GC does not crash.
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.OK() {
		t.Fatalf("fsck after pin-during-sweep: %+v", fsck)
	}
	if _, err := s.GC(store.Policy{MaxAge: time.Hour}); err != nil {
		t.Fatalf("second GC: %v", err)
	}
}

// TestFsckReportsMissingChunk deletes a referenced recording's object — a
// file under chunks/, as the benchmark's own fsck check does — out from
// under its ref.
func TestFsckReportsMissingChunk(t *testing.T) {
	s := open(t)
	d := put(t, s, "jobA", encode(testRecording(1, 4)))
	if err := os.Remove(objectPath(s, d)); err != nil {
		t.Fatal(err)
	}
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatalf("Fsck returned hard error: %v", err)
	}
	if len(fsck.Errors) != 1 || !strings.Contains(fsck.Errors[0], d) || !strings.Contains(fsck.Errors[0], "jobA") {
		t.Fatalf("fsck errors %q, want one naming jobA and %s", fsck.Errors, d)
	}
	// Reading through the dangling ref fails cleanly, no panic.
	if _, err := readRecording(s, "jobA"); err == nil {
		t.Fatal("read through a missing object succeeded")
	}
}

// TestFsckDetectsCorruptChunk damages a recording's object on disk: a
// flipped bit in its last, DEFLATE block, a byte after its last block, and
// a flipped bit in its header.
func TestFsckDetectsCorruptChunk(t *testing.T) {
	s := open(t)
	d := put(t, s, "jobA", encode(testRecording(1, 4)))
	path := objectPath(s, d)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, hurt := range [][]byte{
		flip(raw, len(raw)-1),
		append(bytes.Clone(raw), 0),
		flip(raw, 10), // the raw length: the header CRC fails
	} {
		if err := os.WriteFile(path, hurt, 0o644); err != nil {
			t.Fatal(err)
		}
		fsck, err := s.Fsck()
		if err != nil {
			t.Fatal(err)
		}
		if len(fsck.Errors) != 1 || !strings.Contains(fsck.Errors[0], d) {
			t.Fatalf("fsck errors %q over a corrupt object (%d bytes for %d), want one naming %s", fsck.Errors, len(hurt), len(raw), d)
		}
	}
}

// TestStaleTempFiles plants what a crash between writeFileAtomic's create
// and its rename leaves behind — among the objects and in a job directory:
// fsck counts the files without calling them damage, a dry run reports
// them, and a collection removes them.
func TestStaleTempFiles(t *testing.T) {
	s := open(t)
	d := put(t, s, "jobA", encode(testRecording(1, 4)))
	var planted []string
	var plantedBytes int64
	for i, dir := range []string{
		filepath.Join(s.Root(), "chunks", "zz"),              // a shard of its own
		filepath.Dir(objectPath(s, d)),                       // beside a live object
		filepath.Dir(s.JobArtifact("jobA", "recording.ref")), // a ref or pin write
	} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, ".tmp-123456"+string(rune('0'+i)))
		if err := os.WriteFile(path, bytes.Repeat([]byte{0xee}, 100+i), 0o644); err != nil {
			t.Fatal(err)
		}
		planted = append(planted, path)
		plantedBytes += int64(100 + i)
	}
	present := func() (n int) {
		for _, p := range planted {
			if _, err := os.Stat(p); err == nil {
				n++
			}
		}
		return n
	}

	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.OK() || fsck.StaleTemps != len(planted) {
		t.Fatalf("fsck over planted temp files: %+v", fsck)
	}
	dry, err := s.GC(store.Policy{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if dry.TempsRemoved != len(planted) || dry.BytesReclaimed != plantedBytes || present() != len(planted) {
		t.Fatalf("dry run: %+v, %d of %d temp files left", dry, present(), len(planted))
	}
	rep, err := s.GC(store.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TempsRemoved != len(planted) || rep.BytesReclaimed != plantedBytes || present() != 0 {
		t.Fatalf("gc: %+v, %d temp files left", rep, present())
	}
	// Nothing but the temp files went.
	if rep.ChunksRemoved+rep.RefsRemoved != 0 {
		t.Fatalf("gc removed more than the temp files: %+v", rep)
	}
	if fsck, err = s.Fsck(); err != nil || !fsck.OK() || fsck.StaleTemps != 0 {
		t.Fatalf("fsck after gc: %+v, %v", fsck, err)
	}
	if _, err := readRecording(s, "jobA"); err != nil {
		t.Fatalf("recording after gc: %v", err)
	}
}

func TestStatsCleanStore(t *testing.T) {
	s := open(t)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if *st != (store.StatsReport{}) {
		t.Fatalf("empty store stats: %+v", st)
	}
}
