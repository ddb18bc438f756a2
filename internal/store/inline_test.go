package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"doubleplay/internal/dplog"
	"doubleplay/internal/store"
)

// manifestOf reads and decodes the manifest stored under digest.
func manifestOf(t *testing.T, s *store.Store, digest string) (*store.Manifest, string) {
	t.Helper()
	path := filepath.Join(s.Root(), "manifests", digest[len("sha256-"):len("sha256-")+2], digest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	return man, path
}

// refsAndInlines counts a manifest's entries of each form.
func refsAndInlines(man *store.Manifest) (refs, inlines int) {
	for _, c := range man.Chunks {
		if c.Digest == "" {
			inlines++
		} else {
			refs++
		}
	}
	return refs, inlines
}

// TestPutCreatesOnlyShareableFiles is the change itself: a put makes a
// chunk file for exactly the spans of inlineSpanMax bytes or more, and the
// manifest holds the rest.
func TestPutCreatesOnlyShareableFiles(t *testing.T) {
	s := open(t)
	data := encode(testRecording(1, 6))
	d, err := s.PutRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dplog.OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := rd.Chunks()
	if err != nil {
		t.Fatal(err)
	}
	man, _ := manifestOf(t, s, d)
	if len(man.Chunks) != len(spans) {
		t.Fatalf("manifest has %d entries, the recording %d spans", len(man.Chunks), len(spans))
	}
	big := map[string]bool{}
	var small int64
	for i, c := range spans {
		mc := man.Chunks[i]
		if mc.Len != c.Len || mc.Kind != uint8(c.Kind) {
			t.Fatalf("entry %d is {%d, %d}, span is {%d, %d}", i, mc.Len, mc.Kind, c.Len, c.Kind)
		}
		if inline := mc.Digest == ""; inline != (c.Len < store.InlineSpanMax) {
			t.Fatalf("entry %d of %d bytes: inline = %v", i, c.Len, inline)
		}
		if mc.Digest != "" {
			big[mc.Digest] = true
		} else {
			small += c.Len
		}
	}
	if len(big) == 0 || small == 0 {
		t.Fatalf("fixture is not mixed: %d chunk files, %d inline bytes", len(big), small)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks != len(big) {
		t.Fatalf("%d chunk files on disk, want %d (one per distinct span of %d bytes or more)", st.Chunks, len(big), store.InlineSpanMax)
	}
	if int64(len(man.Inline)) != small {
		t.Fatalf("manifest carries %d inline bytes, the small spans sum to %d", len(man.Inline), small)
	}
}

// TestHandleReadsAcrossInlineAndRefSpans reads every window that straddles
// a span boundary — alone, and reaching over the spans on either side —
// through one handle from several goroutines, over a recording whose spans
// alternate between the manifest and chunk files.
func TestHandleReadsAcrossInlineAndRefSpans(t *testing.T) {
	s := open(t)
	data := encode(testRecording(3, 6))
	d, err := s.PutRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	man, _ := manifestOf(t, s, d)
	if refs, inlines := refsAndInlines(man); refs == 0 || inlines == 0 {
		t.Fatalf("fixture is not mixed: %d refs, %d inline", refs, inlines)
	}
	var bounds []int
	off := 0
	for _, c := range man.Chunks[:len(man.Chunks)-1] {
		off += int(c.Len)
		bounds = append(bounds, off)
	}
	h, err := s.OpenRecording(d)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const readers = 4
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, len(data))
			for bi := g; bi < len(bounds); bi += readers {
				b := bounds[bi]
				for _, before := range []int{1, 2, 19, 255, 256, 700} {
					for _, after := range []int{1, 2, 19, 255, 256, 700} {
						lo, hi := max(b-before, 0), min(b+after, len(data))
						got := buf[:hi-lo]
						if _, err := h.ReadAt(got, int64(lo)); err != nil {
							t.Errorf("ReadAt [%d,%d) across the boundary at %d: %v", lo, hi, b, err)
							return
						}
						if !bytes.Equal(got, data[lo:hi]) {
							t.Errorf("ReadAt [%d,%d) across the boundary at %d returned wrong bytes", lo, hi, b)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// copyTree copies a testdata directory somewhere a test may write.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if de.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStoreWrittenBeforeInlineSpans opens testdata/v1store, a store the
// parent of the inline form wrote (a version-1 manifest, every span a chunk
// file however small, one job ref): it must open, read back byte-exact,
// fsck clean, take a new put beside the old one, and survive collections
// that keep and that drop the old recording.
func TestStoreWrittenBeforeInlineSpans(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v1store"), dir)
	s, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := s.RecordingRef("v1job")
	oldMan, oldPath := manifestOf(t, s, old)
	oldBytes, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if refs, inlines := refsAndInlines(oldMan); oldBytes[4] != 1 || inlines != 0 || refs != 8 {
		t.Fatalf("testdata/v1store is not the version-1 store it should be: version %d, %d refs, %d inline", oldBytes[4], refs, inlines)
	}
	clean := func(when string) {
		t.Helper()
		if rep, err := s.Fsck(); err != nil || !rep.OK() || rep.OrphanChunks != 0 || rep.StaleTemps != 0 {
			t.Fatalf("fsck %s: %+v, %v", when, rep, err)
		}
	}
	clean("as found")
	// The manifest's name is the digest of the recording: reading back
	// bytes that hash to it is reading back the bytes that were put.
	oldData, err := readRecording(s, "v1job")
	if err != nil || store.Digest(oldData) != old {
		t.Fatalf("v1 recording read back wrong: %v", err)
	}
	// A put of what is already there writes nothing: version 1 stays on
	// disk as it is, and is never written again.
	if d, err := s.PutRecording(oldData); err != nil || d != old {
		t.Fatalf("present put: %s, %v", d, err)
	}
	if now, err := os.ReadFile(oldPath); err != nil || !bytes.Equal(now, oldBytes) {
		t.Fatalf("present put rewrote the version-1 manifest: %v", err)
	}

	// Another seed of the same program beside it: a version-2 manifest that
	// shares the old store's big chunks and brings its small spans along.
	before, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	newData := encode(testRecording(2, 2))
	fresh := put(t, s, "v2job", newData)
	newMan, newPath := manifestOf(t, s, fresh)
	if raw, err := os.ReadFile(newPath); err != nil || raw[4] != 2 {
		t.Fatalf("new manifest is not version 2: %v", err)
	}
	refs, inlines := refsAndInlines(newMan)
	after, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if inlines == 0 || after.Chunks-before.Chunks >= refs || after.DedupSavedBytes <= before.DedupSavedBytes {
		t.Fatalf("new put beside the v1 store: %d refs, %d inline, %d new chunk files, dedup saved %d -> %d",
			refs, inlines, after.Chunks-before.Chunks, before.DedupSavedBytes, after.DedupSavedBytes)
	}
	clean("after the new put")

	// A collection with both referenced keeps both.
	if rep, err := s.GC(store.Policy{}); err != nil || rep.ManifestsRemoved+rep.ChunksRemoved != 0 {
		t.Fatalf("gc with everything live: %+v, %v", rep, err)
	}
	for job, want := range map[string][]byte{"v1job": oldData, "v2job": newData} {
		if got, err := readRecording(s, job); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after gc: %v", job, err)
		}
	}
	// Age the old recording out: its small chunk files go, the chunks the
	// new manifest shares with it stay.
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.JobArtifact("v1job", "recording.ref"), stale, stale); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC(store.Policy{MaxAge: time.Hour})
	if err != nil || rep.ManifestsRemoved != 1 || rep.ChunksRemoved == 0 {
		t.Fatalf("gc of the aged v1 recording: %+v, %v", rep, err)
	}
	if s.HasRecording(old) {
		t.Fatal("aged v1 recording survived")
	}
	if got, err := readRecording(s, "v2job"); err != nil || !bytes.Equal(got, newData) {
		t.Fatalf("v2 recording after the v1 one was collected: %v", err)
	}
	clean("after collecting the v1 recording")
}

// TestFsckDetectsDamagedInlineSpan damages the bytes a manifest carries
// inline, both ways they can be damaged: under the manifest's CRC (the
// manifest no longer decodes) and with the CRC made good again (it decodes,
// and reassembles to a recording other than the one it is named for).
func TestFsckDetectsDamagedInlineSpan(t *testing.T) {
	for _, fixCRC := range []bool{false, true} {
		s := open(t)
		d := put(t, s, "jobA", encode(testRecording(1, 4)))
		man, path := manifestOf(t, s, d)
		want := "CRC"
		if fixCRC {
			man.Inline[len(man.Inline)/2] ^= 0x01
			if err := os.WriteFile(path, man.Encode(), 0o644); err != nil {
				t.Fatal(err)
			}
			want = "reassembles to"
		} else {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The tail ends where the CRC starts.
			if err := os.WriteFile(path, flip(raw, len(raw)-5), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.Fsck()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], want) || !strings.Contains(rep.Errors[0], d) {
			t.Fatalf("fix CRC = %v: fsck errors %q, want one naming %s and %q", fixCRC, rep.Errors, d, want)
		}
		if _, err := readRecording(s, "jobA"); fixCRC == (err != nil) {
			// Only fsck pays for the whole-recording digest: a read trusts
			// a manifest whose CRC holds.
			t.Fatalf("fix CRC = %v: read through the damaged manifest: %v", fixCRC, err)
		}
	}
}

// TestStaleTempFiles plants what a crash between writeFileAtomic's create
// and its rename leaves behind, in both namespaces: fsck counts the
// files without calling them damage, a dry run reports them, and a
// collection removes them.
func TestStaleTempFiles(t *testing.T) {
	s := open(t)
	d := put(t, s, "jobA", encode(testRecording(1, 4)))
	var planted []string
	var plantedBytes int64
	for i, ns := range []string{"chunks", "manifests"} {
		// One beside live files, in a shard that exists; one in a shard of
		// its own.
		shard := filepath.Join(s.Root(), ns, "zz")
		if ns == "manifests" {
			shard = filepath.Join(s.Root(), ns, d[len("sha256-"):len("sha256-")+2])
		}
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(shard, ".tmp-123456"+string(rune('0'+i)))
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
	if rep.ManifestsRemoved+rep.ChunksRemoved != 0 {
		t.Fatalf("gc removed more than the temp files: %+v", rep)
	}
	if fsck, err = s.Fsck(); err != nil || !fsck.OK() || fsck.StaleTemps != 0 {
		t.Fatalf("fsck after gc: %+v, %v", fsck, err)
	}
	if _, err := readRecording(s, "jobA"); err != nil {
		t.Fatalf("recording after gc: %v", err)
	}
}
