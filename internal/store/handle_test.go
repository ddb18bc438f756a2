package store

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/vm"
)

// mixedRecording encodes a recording of more blocks than a Handle caches.
// Most of its sections repeat one nine-byte word and deflate; every sixth
// is random words of two-byte varints, whose bytes are as good as uniform,
// and the blocks inside those stay raw in the object.
func mixedRecording() []byte {
	rng := rand.New(rand.NewSource(1))
	rec := &dplog.Recording{Program: "recycle", Workers: 2}
	for i := 0; i < 48; i++ {
		data := make([]vm.Word, 10000)
		for k := range data {
			data[k] = 1 << 60
		}
		if i%6 == 0 {
			data = make([]vm.Word, 70000)
			for k := range data {
				data[k] = (64 + rng.Int63n(8192-64)) * int64(1-2*rng.Intn(2))
			}
		}
		rec.Epochs = append(rec.Epochs, &dplog.EpochLog{
			Index:    i,
			Targets:  []uint64{uint64(i)},
			Syscalls: []dplog.SyscallRecord{{Writes: []vm.MemWrite{{Addr: 4096, Data: data}}}},
		})
	}
	return dplog.MarshalBytesWith(rec, dplog.EncodeOptions{})
}

// mixedObject returns mixedRecording and its object, encoded once per test
// binary: under -race the encode takes a second, and -count repeats the
// reads.
var mixedObject = sync.OnceValues(func() (raw, obj []byte) {
	raw = mixedRecording()
	return raw, encodeObject(nil, raw)
})

// TestHandleRecycling reads one handle from several goroutines at random
// offsets, over a recording of blocks both raw and deflated and more of
// them than the cache holds, so blocks are evicted and their buffers
// recycled while others are read, and closes the handle halfway through.
// Every read must return the recording's bytes; a read may fail only once
// Close has begun. A cached block copied outside the lock, a block pooled
// while still cached or a buffer pooled twice hands one reader's bytes to
// another, and under -race it is also a data race.
func TestHandleRecycling(t *testing.T) {
	raw, obj := mixedObject()
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest(raw)
	if err := writeFileAtomic(s.fs, s.objectPath(digest), obj); err != nil {
		t.Fatal(err)
	}
	h, err := s.OpenRecording(digest)
	if err != nil {
		t.Fatal(err)
	}
	var kept int
	for _, e := range h.hdr.table {
		if e&deflated == 0 {
			kept++
		}
	}
	if n := len(h.hdr.table); n <= handleCacheBlocks || kept == 0 || kept == n {
		t.Fatalf("%d blocks, %d of them raw: want more than %d, raw and deflated both", n, kept, handleCacheBlocks)
	}

	const readers, reads = 8, 300
	closing := make(chan struct{})
	var half, all sync.WaitGroup
	half.Add(readers)
	all.Add(readers)
	for g := 0; g < readers; g++ {
		go func(seed int64) {
			defer all.Done()
			halfway := false
			defer func() {
				if !halfway {
					half.Done()
				}
			}()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 3*objectBlock)
			for r := 0; r < reads; r++ {
				if r == reads/2 {
					halfway = true
					half.Done()
				}
				off := rng.Int63n(int64(len(raw)))
				p := buf[:1+rng.Intn(len(buf))]
				n, err := h.ReadAt(p, off)
				if !bytes.Equal(p[:n], raw[off:off+int64(n)]) {
					t.Errorf("reader %d: %d bytes at %d differ from the recording's", seed, n, off)
					return
				}
				if err != nil && err != io.EOF {
					select {
					case <-closing:
					default:
						t.Errorf("reader %d: read at %d before Close: %v", seed, off, err)
					}
					return
				}
			}
		}(int64(g))
	}
	half.Wait()
	close(closing)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	all.Wait()
}

// TestOpenObjectAllocs pins what opening an object and decoding its header
// allocates once the prefix pool is warm: seven allocations, os.Open's
// path and two file structs, Stat's result, then the decoded header and
// its two tables. The 4 KiB prefix the header is read through is pooled.
func TestOpenObjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	path := filepath.Join(t.TempDir(), "object")
	if err := os.WriteFile(path, encodeObject(nil, mixedRecording()), 0o644); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		f, _, err := openObject(path)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	})
	if n != 7 {
		t.Fatalf("openObject allocates %v times per call, want 7", n)
	}
}
