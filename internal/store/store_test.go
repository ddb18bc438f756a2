package store_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/store"
	"doubleplay/internal/vm"
)

func open(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// testRecording builds a deterministic recording; the seed changes its
// boundary hashes and schedules. An epoch encodes to about 620 bytes, so a
// recording of 106 epochs or more spans object blocks.
func testRecording(seed uint64, epochs int) *dplog.Recording {
	rec := &dplog.Recording{
		Program: "storetest", Workers: 2, Seed: int64(seed),
		FinalHash: 0xabc ^ seed, OutputHash: 0xdef, Quantum: 250,
	}
	for i := 0; i < epochs; i++ {
		ep := &dplog.EpochLog{
			Index:      i,
			StartHash:  seed*1000 + uint64(i),
			EndHash:    seed*1000 + uint64(i) + 1,
			CommitHash: seed*2000 + uint64(i),
			Targets:    []uint64{uint64(250 * (i + 1))},
			Schedule:   []dplog.Slice{{Tid: int(seed) % 2, N: 100 + uint64(i)}, {Tid: 1, N: 150}},
		}
		if i%2 == 0 {
			for k := 0; k < 120; k++ {
				ep.Schedule = append(ep.Schedule, dplog.Slice{Tid: k % 2, N: 10*seed + uint64(k)})
			}
		}
		for k := 0; k < 24; k++ {
			sys := dplog.SyscallRecord{Tid: k % 2, Num: int64(7 + i), Ret: int64(k)}
			sys.Args = [6]vm.Word{1, 2, 3, int64(i), int64(k), 6}
			sys.Writes = []vm.MemWrite{{Addr: int64(4096 + 8*k), Data: []vm.Word{int64(i), int64(k), 3}}}
			ep.Syscalls = append(ep.Syscalls, sys)
		}
		for k := 0; k < 6; k++ {
			ep.SyncOrder = append(ep.SyncOrder, dplog.SyncRecord{Tid: k % 2, Kind: vm.ObjLock, ID: int64(9 + i)})
		}
		rec.Epochs = append(rec.Epochs, ep)
	}
	return rec
}

func encode(rec *dplog.Recording) []byte {
	return dplog.MarshalBytesWith(rec, dplog.EncodeOptions{Compress: false})
}

// readRecording loads the complete recording bytes a job produced.
func readRecording(s *store.Store, job string) ([]byte, error) {
	h, err := s.OpenRecordingByJob(job)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	data := make([]byte, h.Size())
	if _, err := h.ReadAt(data, 0); err != nil {
		return nil, err
	}
	return data, nil
}

// objectPath is where the store keeps the object of the recording digest.
func objectPath(s *store.Store, digest string) string {
	return filepath.Join(s.Root(), "chunks", digest[len("sha256-"):len("sha256-")+2], digest)
}

// objectFiles lists every file among the objects, temp files included.
func objectFiles(t *testing.T, root string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, "chunks", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestParallelPutRecording has many goroutines put the same recording:
// all must succeed with the one digest and leave one intact recording and
// totals that counted it once.
func TestParallelPutRecording(t *testing.T) {
	s := open(t)
	data := encode(testRecording(2, 4))
	want := store.Digest(data)
	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := s.PutRecording(data)
			if err != nil {
				errs <- err
				return
			}
			if d != want {
				errs <- fmt.Errorf("digest %s, want %s", d, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("parallel PutRecording: %v", err)
	}
	if err := s.SetRecordingRef("job", want); err != nil {
		t.Fatal(err)
	}
	if got, err := readRecording(s, "job"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("recording damaged after parallel puts: %v", err)
	}
	if st, err := s.Stats(); err != nil || st.Recordings != 1 || !reflect.DeepEqual(*st, s.Totals()) {
		t.Fatalf("stats %+v (%v), totals %+v", st, err, s.Totals())
	}
}

// TestPutRecordingDedupsByDigest: two seeds are two objects, each smaller
// than its recording, and a put of bytes already stored writes nothing.
func TestPutRecordingDedupsByDigest(t *testing.T) {
	s := open(t)
	a := encode(testRecording(1, 6))
	b := encode(testRecording(2, 6))
	da, err := s.PutRecording(a)
	if err != nil {
		t.Fatalf("PutRecording a: %v", err)
	}
	db, err := s.PutRecording(b)
	if err != nil {
		t.Fatalf("PutRecording b: %v", err)
	}
	if da == db {
		t.Fatal("different recordings got one digest")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Recordings != 2 || st.LogicalBytes != int64(len(a)+len(b)) {
		t.Fatalf("stats %+v, want 2 recordings of %d logical bytes", st, len(a)+len(b))
	}
	if st.StoredBytes >= st.LogicalBytes {
		t.Fatalf("nothing compressed at rest: %+v", st)
	}
	before := objectFiles(t, s.Root())
	if d2, err := s.PutRecording(a); err != nil || d2 != da {
		t.Fatalf("re-put: %s, %v", d2, err)
	}
	if after := objectFiles(t, s.Root()); !reflect.DeepEqual(before, after) || s.Totals() != *st {
		t.Fatalf("a present put wrote: files %v -> %v, totals %+v", before, after, s.Totals())
	}
}

// TestPutCreatesOneFile is what the object layout is for: a put of any
// size lands as exactly one file, named by the recording's digest, and it
// decodes back to the recording.
func TestPutCreatesOneFile(t *testing.T) {
	s := open(t)
	for i, epochs := range []int{1, 6, 250} {
		data := encode(testRecording(uint64(1+i), epochs))
		before := len(objectFiles(t, s.Root()))
		d, err := s.PutRecording(data)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(objectFiles(t, s.Root())) - before; n != 1 {
			t.Fatalf("%d-byte recording: %d new files", len(data), n)
		}
		obj, err := os.ReadFile(objectPath(s, d))
		if err != nil {
			t.Fatal(err)
		}
		if raw, err := store.DecodeObject(obj); err != nil || !bytes.Equal(raw, data) {
			t.Fatalf("%d-byte recording: object does not decode back: %v", len(data), err)
		}
		if epochs == 250 && len(data) <= 2*store.ObjectBlock {
			t.Fatalf("fixture is %d bytes, want more than two blocks", len(data))
		}
	}
}

func TestOpenRecordingReassemblesExactly(t *testing.T) {
	s := open(t)
	data := encode(testRecording(7, 150))
	d, err := s.PutRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.OpenRecording(d)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", h.Size(), len(data))
	}
	// Full sequential read.
	got := make([]byte, len(data))
	if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt full: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled recording differs from the original")
	}
	// Strided reads at awkward offsets, spanning block boundaries.
	for _, tc := range []struct{ off, n int }{
		{0, 1}, {1, 7}, {len(data) / 3, 1000}, {len(data) - 5, 5}, {len(data) / 2, len(data) / 2},
	} {
		n := tc.n
		if tc.off+n > len(data) {
			n = len(data) - tc.off
		}
		buf := make([]byte, n)
		if _, err := h.ReadAt(buf, int64(tc.off)); err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(buf, data[tc.off:tc.off+n]) {
			t.Fatalf("ReadAt(%d,%d) returned wrong bytes", tc.off, tc.n)
		}
	}
	// Past-the-end read.
	if _, err := h.ReadAt(make([]byte, 4), int64(len(data))); err != io.EOF {
		t.Fatalf("read past end: err = %v, want EOF", err)
	}
	// The handle composes with the dplog reader: every epoch decodes
	// identically to the in-memory path.
	rd, err := dplog.OpenReader(h, h.Size())
	if err != nil {
		t.Fatalf("OpenReader over handle: %v", err)
	}
	mem, err := dplog.OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumSections() != mem.NumSections() {
		t.Fatalf("sections %d vs %d", rd.NumSections(), mem.NumSections())
	}
	var a, b bytes.Buffer
	if err := rd.WriteRange(&a, 1, 50); err != nil {
		t.Fatalf("WriteRange over handle: %v", err)
	}
	if err := mem.WriteRange(&b, 1, 50); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("epoch-range extraction through the handle differs from the in-memory path")
	}
}

// TestHandleReadsAcrossBlocks reads every window that straddles a block
// boundary — alone, and reaching over the blocks on either side — through
// one handle from several goroutines.
func TestHandleReadsAcrossBlocks(t *testing.T) {
	s := open(t)
	data := encode(testRecording(3, 450))
	d, err := s.PutRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int
	for b := store.ObjectBlock; b < len(data); b += store.ObjectBlock {
		bounds = append(bounds, b)
	}
	if len(bounds) < 3 {
		t.Fatalf("fixture of %d bytes crosses %d block boundaries", len(data), len(bounds))
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
			for _, b := range bounds {
				for _, before := range []int{1, 2, 19, 4096, store.ObjectBlock, store.ObjectBlock + 7} {
					lo, hi := max(b-before, 0), min(b+1+g*700, len(data))
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
		}(g)
	}
	wg.Wait()
}

// tree lists every file and directory under root with its size.
func tree(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		size := int64(-1)
		if !de.IsDir() {
			size = info.Size()
		}
		out = append(out, fmt.Sprintf("%s %d", path, size))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPutRecordingRefusesNonRecordings: a recording is stored one way, as
// the object of an intact v6 log. Anything else is refused with an error
// and leaves the store — the accounting, the gauges' totals and the
// directory tree — exactly as it was.
func TestPutRecordingRefusesNonRecordings(t *testing.T) {
	s := open(t)
	put(t, s, "jobA", encode(testRecording(3, 3)))
	before, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	files := tree(t, s.Root())
	whole := dplog.MarshalBytes(testRecording(3, 2))
	damaged := bytes.Clone(whole)
	damaged[len(damaged)/2] ^= 0x40 // inside a section: its CRC fails
	for name, data := range map[string][]byte{
		"junk":      []byte("hello artifact store"),
		"empty":     {},
		"truncated": whole[:len(whole)-3],
		"half":      whole[:len(whole)/2],
		"damaged":   damaged,
	} {
		d, err := s.PutRecording(data)
		if err == nil || d != "" {
			t.Fatalf("%s: PutRecording = %q, %v; want a refusal", name, d, err)
		}
		if s.HasRecording(store.Digest(data)) {
			t.Fatalf("%s: refused bytes resolve to a recording", name)
		}
		if _, err := s.OpenRecording(store.Digest(data)); err == nil {
			t.Fatalf("%s: refused bytes open", name)
		}
		after, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) || !reflect.DeepEqual(*before, s.Totals()) {
			t.Fatalf("%s: a refused put moved the accounting: before %+v, after %+v, totals %+v", name, before, after, s.Totals())
		}
		if got := tree(t, s.Root()); !reflect.DeepEqual(files, got) {
			t.Fatalf("%s: a refused put touched the directory tree:\nbefore %v\nafter  %v", name, files, got)
		}
	}
	if rep, err := s.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("fsck after refused puts: %+v, %v", rep, err)
	}
}

func TestRecordingRefRoundTrip(t *testing.T) {
	s := open(t)
	data := encode(testRecording(4, 3))
	d, err := s.PutRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRecordingRef("job1", d); err != nil {
		t.Fatal(err)
	}
	if got := s.RecordingRef("job1"); got != d {
		t.Fatalf("RecordingRef = %q, want %q", got, d)
	}
	back, err := readRecording(s, "job1")
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("ReadRecording: %v", err)
	}
	if s.RecordingRef("nope") != "" {
		t.Fatal("ref for unknown job")
	}
	if !s.HasRecording(d) {
		t.Fatal("HasRecording(d) = false")
	}
}

func flip(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0x40
	return out
}
