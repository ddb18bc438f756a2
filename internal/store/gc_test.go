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

func TestGCKeepsLiveSharedChunksReclaimsOrphans(t *testing.T) {
	s := open(t)
	a := encode(testRecording(1, 6))
	b := encode(testRecording(2, 6))
	da := put(t, s, "jobA", a)
	db := put(t, s, "jobB", b)

	// Age out jobB only.
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.JobArtifact("jobB", "recording.ref"), old, old); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC(store.Policy{MaxAge: time.Hour})
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.LiveRecordings != 1 || rep.ManifestsRemoved != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ChunksRemoved == 0 {
		t.Fatal("expected jobB's unshared chunks to be reclaimed")
	}
	if rep.BytesReclaimed <= 0 {
		t.Fatalf("BytesReclaimed = %d", rep.BytesReclaimed)
	}
	// jobA fully intact; jobB gone.
	back, err := readRecording(s, "jobA")
	if err != nil || !bytes.Equal(back, a) {
		t.Fatalf("jobA recording damaged by GC: %v", err)
	}
	if s.HasRecording(db) {
		t.Fatal("jobB recording survived GC")
	}
	if !s.HasRecording(da) {
		t.Fatal("jobA recording missing")
	}
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.OK() {
		t.Fatalf("fsck after GC: %+v", fsck)
	}
	if fsck.OrphanChunks != 0 {
		t.Fatalf("fsck found %d orphan chunks after sweep", fsck.OrphanChunks)
	}
}

func TestGCPinnedSurvivesAgePolicy(t *testing.T) {
	s := open(t)
	a := encode(testRecording(1, 4))
	put(t, s, "jobA", a)
	if err := s.Pin("jobA"); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.JobArtifact("jobA", "recording.ref"), old, old); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC(store.Policy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pinned != 1 || rep.LiveRecordings != 1 || rep.ManifestsRemoved != 0 {
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
	if rep.ManifestsRemoved != 1 {
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
	if rep.LiveRecordings != 1 || rep.ManifestsRemoved != 2 {
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
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.JobArtifact("jobA", "recording.ref"), old, old); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC(store.Policy{MaxAge: time.Hour, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DryRun || rep.ManifestsRemoved != 1 {
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
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.JobArtifact("jobA", "recording.ref"), old, old); err != nil {
		t.Fatal(err)
	}
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
	if rep.ManifestsRemoved != 1 {
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

func TestFsckReportsMissingChunk(t *testing.T) {
	s := open(t)
	d := put(t, s, "jobA", encode(testRecording(1, 4)))
	// Delete one chunk file out from under the manifest.
	var victim string
	err := filepath.WalkDir(filepath.Join(s.Root(), "chunks"), func(path string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() && victim == "" {
			victim = path
		}
		return err
	})
	if err != nil || victim == "" {
		t.Fatalf("no chunk files found: %v", err)
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatalf("Fsck returned hard error: %v", err)
	}
	if fsck.OK() {
		t.Fatal("fsck passed with a missing chunk")
	}
	found := false
	for _, e := range fsck.Errors {
		if strings.Contains(e, "sha256-") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck errors name no digest: %v", fsck.Errors)
	}
	// Reading through the damaged manifest fails cleanly, no panic.
	if _, err := readRecording(s, "jobA"); err == nil {
		t.Fatal("read through missing chunk succeeded")
	}
	_ = d
}

func TestFsckDetectsCorruptChunk(t *testing.T) {
	s := open(t)
	put(t, s, "jobA", encode(testRecording(1, 4)))
	var victim string
	var raw []byte
	err := filepath.WalkDir(filepath.Join(s.Root(), "chunks"), func(path string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() && victim == "" {
			if b, _ := os.ReadFile(path); len(b) > 0 && b[0] == 1 { // at-rest flag: DEFLATE
				victim, raw = path, b
			}
		}
		return err
	})
	if err != nil || victim == "" {
		t.Fatal("no deflated chunk file")
	}
	// A flipped bit, and a byte after the chunk's last: a deflated chunk is
	// its DEFLATE stream and nothing else, a raw one its declared length.
	for _, hurt := range [][]byte{
		append(append([]byte(nil), raw[:len(raw)-1]...), raw[len(raw)-1]^0x01),
		append(append([]byte(nil), raw...), 0),
	} {
		if err := os.WriteFile(victim, hurt, 0o644); err != nil {
			t.Fatal(err)
		}
		fsck, err := s.Fsck()
		if err != nil {
			t.Fatal(err)
		}
		if fsck.OK() {
			t.Fatalf("fsck passed with a corrupt chunk (%d bytes for %d)", len(hurt), len(raw))
		}
	}
}

func TestStatsCleanStore(t *testing.T) {
	s := open(t)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks != 0 || st.LogicalBytes != 0 || st.DedupRatio != 1 {
		t.Fatalf("empty store stats: %+v", st)
	}
}
