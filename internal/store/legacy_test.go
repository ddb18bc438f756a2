package store_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"doubleplay/internal/store"
)

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

// legacyManifests lists the digests of the manifests a chunk-layout store
// holds.
func legacyManifests(t *testing.T, root string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "manifests", "*", "sha256-*"))
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, p := range paths {
		digests = append(digests, filepath.Base(p))
	}
	return digests
}

// objectNames lists the files among a store's objects by name.
func objectNames(t *testing.T, root string) []string {
	t.Helper()
	var names []string
	for _, p := range objectFiles(t, root) {
		names = append(names, filepath.Base(p))
	}
	return names
}

// checkMigration opens a copy of testdata/<fixture>, a store the chunk
// layout wrote with one job ref, and holds it to what a converted store
// must be: one object per manifest, named as it was, and no manifest or
// chunk file left; the ref and the pin as they were; the recording read
// back digest-exact; fsck clean; a second Open changes nothing; and GC then
// behaves as on a store that was never converted.
func checkMigration(t *testing.T, fixture, job string, pinned bool) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", fixture), dir)
	manifests := legacyManifests(t, dir)
	ref, err := os.ReadFile(filepath.Join(dir, "jobs", job, "recording.ref"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("testdata/%s is not a chunk-layout store with a ref: %d manifests, %v", fixture, len(manifests), err)
	}
	old := strings.TrimSpace(string(ref))

	s, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifests")); !os.IsNotExist(err) {
		t.Fatalf("manifests/ survived the conversion: %v", err)
	}
	if got := objectNames(t, dir); !reflect.DeepEqual(got, manifests) {
		t.Fatalf("objects %v, want one per manifest %v and no chunk file", got, manifests)
	}
	for _, name := range manifests {
		if _, err := store.DecodeObject(mustRead(t, filepath.Join(dir, "chunks", name[7:9], name))); err != nil {
			t.Fatalf("%s is not an object: %v", name, err)
		}
	}
	_, err = os.Stat(s.JobArtifact(job, "pinned"))
	if s.RecordingRef(job) != old || (err == nil) != pinned {
		t.Fatalf("ref %q (pin: %v), want %q pinned %v", s.RecordingRef(job), err, old, pinned)
	}
	data, err := readRecording(s, job)
	if err != nil || store.Digest(data) != old {
		t.Fatalf("converted recording read back wrong: %v", err)
	}
	fsck, err := s.Fsck()
	if err != nil || !fsck.OK() || fsck.Recordings != len(manifests) || fsck.OrphanRecordings != len(manifests)-1 || fsck.StaleTemps != 0 {
		t.Fatalf("fsck after the conversion: %+v, %v", fsck, err)
	}
	before := tree(t, dir)
	if s, err = store.Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	if after := tree(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("a second Open changed the converted store:\nbefore %v\nafter  %v", before, after)
	}

	// GC as on a fresh store: the orphans go, a new put lives beside the
	// old recording, and aging the old ref out collects it unless pinned.
	if rep, err := s.GC(store.Policy{}); err != nil || rep.ChunksRemoved != len(manifests)-1 || rep.RefsRemoved != 0 {
		t.Fatalf("gc of the orphans: %+v, %v", rep, err)
	}
	newData := encode(testRecording(2, 2))
	put(t, s, "newjob", newData)
	age(t, s, job)
	rep, err := s.GC(store.Policy{MaxAge: time.Hour})
	if want := map[bool]int{true: 0, false: 1}[pinned]; err != nil || rep.ChunksRemoved != want || s.HasRecording(old) != pinned {
		t.Fatalf("gc of the aged converted recording (pinned %v): %+v, %v", pinned, rep, err)
	}
	if got, err := readRecording(s, "newjob"); err != nil || !bytes.Equal(got, newData) {
		t.Fatalf("new recording after gc: %v", err)
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.OK() || fsck.OrphanRecordings != 0 {
		t.Fatalf("fsck after gc: %+v, %v", fsck, err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreWrittenBeforeInlineSpans converts testdata/v1store: a
// version-1 manifest whose every span, however small, is a chunk file, and
// one unpinned job ref.
func TestStoreWrittenBeforeInlineSpans(t *testing.T) {
	checkMigration(t, "v1store", "v1job", false)
}

// TestStoreWrittenWithInlineSpans converts testdata/v2store: two version-2
// manifests carrying their small spans inline and sharing chunk files, one
// of them named by a pinned job's ref.
func TestStoreWrittenWithInlineSpans(t *testing.T) {
	checkMigration(t, "v2store", "v2job", true)
}

// TestFsckDetectsDamagedInlineSpan damages the bytes a chunk-layout
// manifest carries inline, both ways they can be damaged: under the
// manifest's CRC (it no longer decodes) and with the CRC made good again
// (it decodes, and reassembles to a recording other than the one it is
// named for). Either way the conversion makes no object of it, and fsck
// names the recording through the job ref that now dangles.
func TestFsckDetectsDamagedInlineSpan(t *testing.T) {
	for _, fixCRC := range []bool{false, true} {
		dir := t.TempDir()
		copyTree(t, filepath.Join("testdata", "v2store"), dir)
		d := strings.TrimSpace(string(mustRead(t, filepath.Join(dir, "jobs", "v2job", "recording.ref"))))
		path := filepath.Join(dir, "manifests", d[7:9], d)
		raw := mustRead(t, path)
		man, err := store.DecodeManifest(raw)
		if err != nil || len(man.Inline) == 0 {
			t.Fatalf("testdata/v2store: %s carries no inline spans: %v", d, err)
		}
		hurt := flip(raw, len(raw)-5) // the tail ends where the CRC starts
		if fixCRC {
			binary.LittleEndian.PutUint32(hurt[len(hurt)-4:], crc32.ChecksumIEEE(hurt[:len(hurt)-4]))
		}
		if err := os.WriteFile(path, hurt, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Fsck()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], d) || !strings.Contains(rep.Errors[0], "v2job") {
			t.Fatalf("fix CRC = %v: fsck errors %q, want one naming v2job and %s", fixCRC, rep.Errors, d)
		}
		if _, err := readRecording(s, "v2job"); err == nil {
			t.Fatalf("fix CRC = %v: a damaged recording reads", fixCRC)
		}
	}
}

// TestManifestRoundTrip lays out manifests of both entry forms, decodes
// them back, and holds corruptions to a clean refusal.
func TestManifestRoundTrip(t *testing.T) {
	ra, rb := store.Digest([]byte("a")), store.Digest([]byte("b"))
	want := &store.Manifest{Total: 130, Inline: []byte("ten bytes!twenty bytes of span")}
	want.Chunks = []store.ManifestChunk{
		{Len: 10, Kind: 0}, // inline: no digest
		{Digest: ra, Len: 30, Kind: 1},
		{Digest: rb, Len: 50, Kind: 2},
		{Len: 20, Kind: 255},
		{Digest: ra, Len: 20, Kind: 3},
	}
	enc := layManifest(want)
	got, err := store.DecodeManifest(enc)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
	}
	// An inline tail stored as DEFLATE inflates back.
	big := &store.Manifest{Total: 200 * 64}
	for i := 0; i < 64; i++ {
		big.Chunks = append(big.Chunks, store.ManifestChunk{Len: 200, Kind: 1})
		big.Inline = append(big.Inline, bytes.Repeat([]byte{byte(i)}, 200)...)
	}
	if got, err := store.DecodeManifest(layManifest(big)); err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("deflated tail round trip: %v", err)
	}
	// Corruptions must fail cleanly, never panic.
	for _, mut := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic", append([]byte("XXXX"), enc[4:]...)},
		{"truncated", enc[:len(enc)-6]},
		{"bitflip", flip(enc, len(enc)/2)},
		{"inline byte", flip(enc, len(enc)-8)},
		{"crc", flip(enc, len(enc)-1)},
	} {
		if _, err := store.DecodeManifest(mut.data); err == nil {
			t.Fatalf("%s: corrupt manifest decoded", mut.name)
		}
	}
}

// TestManifestV1StillDecodes reads a manifest the parent of the inline
// form wrote (version 1: ref entries only).
func TestManifestV1StillDecodes(t *testing.T) {
	v1 := mustRead(t, filepath.Join("testdata", "v1.dpmf"))
	if v1[4] != 1 {
		t.Fatalf("testdata/v1.dpmf declares version %d", v1[4])
	}
	want := &store.Manifest{Total: 100, Chunks: []store.ManifestChunk{
		{Digest: store.Digest([]byte("a")), Len: 30, Kind: 1},
		{Digest: store.Digest([]byte("b")), Len: 50, Kind: 2},
		{Digest: store.Digest([]byte("a")), Len: 20, Kind: 3},
	}}
	if got, err := store.DecodeManifest(v1); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 manifest: %+v, %v", got, err)
	}
}

// TestManifestRefusesBadInline holds the decoder to the inline form's
// rules, and to refusing a tail that expands past what its entries declare
// without ever holding the expansion.
func TestManifestRefusesBadInline(t *testing.T) {
	for _, bad := range badInlineManifests() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := store.DecodeManifest(bad.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %+v", bad.name, m)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", bad.name, got)
		}
	}
}
