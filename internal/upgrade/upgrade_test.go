package upgrade

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"doubleplay/internal/store"
)

// fixture copies testdata/<name>, a store the chunk layout wrote, somewhere
// a test may write, and backdates every job file by two days, so that a
// carried modification time shows and a retention GC can age a ref out.
func fixture(t *testing.T, name string) string {
	t.Helper()
	src, dst := filepath.Join("testdata", name), t.TempDir()
	old := time.Now().Add(-48 * time.Hour).Truncate(time.Second)
	err := filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if de.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, rel), data, 0o644)
		}
		if err == nil && strings.HasPrefix(rel, "jobs") {
			err = os.Chtimes(filepath.Join(dst, rel), old, old)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// snapshot maps every path under root to a digest of its bytes and, outside
// chunks/, where an object's time means nothing, its modification time
// ("dir" for a directory).
func snapshot(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if de.IsDir() {
			out[rel] = "dir"
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		out[rel] = fmt.Sprintf("%x", sha256.Sum256(data))
		if !strings.HasPrefix(rel, "chunks") {
			out[rel] += fmt.Sprint(" ", info.ModTime().UnixNano())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// manifests lists the digests of the recordings a chunk-layout store holds.
func manifests(t *testing.T, root string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "manifests", "*", "sha256-*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("%s holds no manifest: %v", root, err)
	}
	var out []string
	for _, p := range paths {
		out = append(out, filepath.Base(p))
	}
	return out
}

// objectPath is where the store at root keeps the object of digest.
func objectPath(root, digest string) string {
	return filepath.Join(root, "chunks", digest[7:9], digest)
}

// TestOpenRefusesChunkLayout: store.Open on either fixture fails with an
// error that names the command, and leaves the tree byte-identical.
func TestOpenRefusesChunkLayout(t *testing.T) {
	for _, name := range []string{"v1store", "v2store"} {
		dir := fixture(t, name)
		before := snapshot(t, dir)
		if _, err := store.Open(dir, nil); err == nil || !strings.Contains(err.Error(), "doubleplay store upgrade") {
			t.Fatalf("%s: Open = %v, want a refusal naming doubleplay store upgrade", name, err)
		}
		if after := snapshot(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: a refused Open changed the tree:\nbefore %v\nafter  %v", name, before, after)
		}
	}
}

// checkUpgrade converts a copy of testdata/<name>, a store the chunk layout
// wrote with one job ref, and holds the new root to what a converted store
// must be: one object per manifest under the same name, every recording
// digest-exact, the job files as they were with their modification times,
// fsck clean, and the old root untouched. A second run changes nothing; a
// run after an object and a ref were deleted restores exactly those; and GC
// then ages the carried ref out as it would have in the old root.
func checkUpgrade(t *testing.T, name, job string, pinned bool) {
	old := fixture(t, name)
	digests := manifests(t, old)
	before := snapshot(t, old)
	root := filepath.Join(t.TempDir(), "new")
	put, copied, err := Store(old, root)
	if err != nil || put != len(digests) || copied == 0 {
		t.Fatalf("upgrade: %d put, %d copied, %v; want %d put", put, copied, err, len(digests))
	}
	if after := snapshot(t, old); !reflect.DeepEqual(before, after) {
		t.Fatal("the upgrade wrote into the old root")
	}
	objects, _ := filepath.Glob(filepath.Join(root, "chunks", "*", "*"))
	if len(objects) != len(digests) {
		t.Fatalf("objects %v, want one per manifest %v", objects, digests)
	}
	s, err := store.Open(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range digests {
		h, err := s.OpenRecording(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		raw := make([]byte, h.Size())
		_, err = h.ReadAt(raw, 0)
		h.Close()
		if err != nil || store.Digest(raw) != d {
			t.Fatalf("%s reads back wrong: %v", d, err)
		}
	}
	if got, want := snapshot(t, filepath.Join(root, "jobs")), snapshot(t, filepath.Join(old, "jobs")); !reflect.DeepEqual(got, want) {
		t.Fatalf("job files not carried as they were:\ngot  %v\nwant %v", got, want)
	}
	fsck, err := s.Fsck()
	if err != nil || !fsck.OK() || fsck.Recordings != len(digests) || fsck.OrphanRecordings != len(digests)-1 || fsck.StaleTemps != 0 {
		t.Fatalf("fsck of the new root: %+v, %v", fsck, err)
	}

	converted := snapshot(t, root)
	if put, copied, err := Store(old, root); err != nil || put != 0 || copied != 0 {
		t.Fatalf("second run: %d put, %d copied, %v", put, copied, err)
	}
	if got := snapshot(t, root); !reflect.DeepEqual(got, converted) {
		t.Fatal("a second run changed the new root")
	}
	ref := strings.TrimSpace(string(mustRead(t, filepath.Join(old, "jobs", job, "recording.ref"))))
	for _, p := range []string{objectPath(root, ref), filepath.Join(root, "jobs", job, "recording.ref")} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if put, copied, err := Store(old, root); err != nil || put != 1 || copied != 1 {
		t.Fatalf("run after deleting an object and a ref: %d put, %d copied, %v", put, copied, err)
	}
	if got := snapshot(t, root); !reflect.DeepEqual(got, converted) {
		t.Fatal("the rerun did not restore exactly the deleted object and ref")
	}

	// The ref kept its age: a one-hour retention collects it unless pinned,
	// and the orphans go either way.
	rep, err := s.GC(store.Policy{MaxAge: time.Hour})
	if want := map[bool]int{true: 0, false: 1}[pinned]; err != nil || rep.RefsRemoved != want || s.HasRecording(ref) != pinned {
		t.Fatalf("gc of the aged ref (pinned %v): %+v, %v", pinned, rep, err)
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

// TestStoreWrittenBeforeInlineSpans converts testdata/v1store: a version-1
// manifest whose every span, however small, is a chunk file, and one
// unpinned job ref.
func TestStoreWrittenBeforeInlineSpans(t *testing.T) {
	checkUpgrade(t, "v1store", "v1job", false)
}

// TestStoreWrittenWithInlineSpans converts testdata/v2store: two version-2
// manifests carrying their small spans inline and sharing chunk files, one
// of them named by a pinned job's ref.
func TestStoreWrittenWithInlineSpans(t *testing.T) {
	checkUpgrade(t, "v2store", "v2job", true)
}

// TestFsckDetectsDamagedInlineSpan damages the bytes a manifest carries
// inline, both ways they can be damaged: under the manifest's CRC (it no
// longer decodes) and with the CRC made good again (it decodes, and
// reassembles to a recording other than the one it is named for). Either
// way the upgrade writes no object for it and fails naming the recording
// and the job, and fsck of the new root names both through the ref that
// now dangles.
func TestFsckDetectsDamagedInlineSpan(t *testing.T) {
	for _, fixCRC := range []bool{false, true} {
		old := fixture(t, "v2store")
		d := strings.TrimSpace(string(mustRead(t, filepath.Join(old, "jobs", "v2job", "recording.ref"))))
		path := filepath.Join(old, "manifests", d[7:9], d)
		raw := mustRead(t, path)
		if man, err := decodeManifest(raw); err != nil || len(man.Inline) == 0 {
			t.Fatalf("testdata/v2store: %s carries no inline spans: %v", d, err)
		}
		hurt := flip(raw, len(raw)-5) // the tail ends where the CRC starts
		if fixCRC {
			binary.LittleEndian.PutUint32(hurt[len(hurt)-4:], crc32.ChecksumIEEE(hurt[:len(hurt)-4]))
		}
		if err := os.WriteFile(path, hurt, 0o644); err != nil {
			t.Fatal(err)
		}
		root := filepath.Join(t.TempDir(), "new")
		put, _, err := Store(old, root)
		if err == nil || !strings.Contains(err.Error(), d) || !strings.Contains(err.Error(), "v2job") || put != 1 {
			t.Fatalf("fix CRC = %v: %d put, %v; want the other recording put and an error naming v2job and %s", fixCRC, put, err, d)
		}
		if _, err := os.Stat(objectPath(root, d)); !os.IsNotExist(err) {
			t.Fatalf("fix CRC = %v: an object was written for the damaged recording (%v)", fixCRC, err)
		}
		s, err := store.Open(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Fsck()
		if err != nil || len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], d) || !strings.Contains(rep.Errors[0], "v2job") {
			t.Fatalf("fix CRC = %v: fsck %+v, %v; want one error naming v2job and %s", fixCRC, rep, err, d)
		}
	}
}
