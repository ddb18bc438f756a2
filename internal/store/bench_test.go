package store_test

import (
	"fmt"
	"testing"

	"doubleplay/internal/store"
	"doubleplay/internal/trace"
)

// The store layer benchmarks. Stores are opened with a registry, as the
// daemon opens its own, so a put pays for publishing the store.* gauges.
// preload is how many referenced recordings (distinct seeds of one program)
// the store holds before the timer starts: what a put, a present put and a
// GC cost must be read against how much is already stored. files/op is the
// object files an operation creates (a put), opens (a cold read) or visits
// to decide whether to unlink them (a GC): each is a system call or three,
// which is what the time is spent on. stored/logical is the store's bytes
// on disk over its recordings' raw bytes.

var sinkDigest string

// objects counts the store's recording objects and reports its
// stored/logical ratio.
func objects(b *testing.B, s *store.Store) int {
	b.Helper()
	st, err := s.Stats()
	if err != nil {
		b.Fatal(err)
	}
	if st.LogicalBytes > 0 {
		b.ReportMetric(float64(st.StoredBytes)/float64(st.LogicalBytes), "stored/logical")
	}
	return st.Recordings
}

// benchStore opens a store in a fresh directory holding preload recordings.
func benchStore(b *testing.B, preload int) *store.Store {
	b.Helper()
	s, err := store.Open(b.TempDir(), trace.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < preload; i++ {
		d, err := s.PutRecording(encode(testRecording(uint64(1+i), 6)))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SetRecordingRef(fmt.Sprintf("pre%04d", i), d); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkPutRecording stores a recording the store has not seen. Every
// iteration adds one, so compare preloads at one fixed -benchtime=Nx.
func BenchmarkPutRecording(b *testing.B) {
	for _, preload := range []int{0, 64, 512} {
		b.Run(fmt.Sprintf("preload=%d", preload), func(b *testing.B) {
			s := benchStore(b, preload)
			fresh := make([][]byte, b.N)
			for i := range fresh {
				fresh[i] = encode(testRecording(uint64(1_000_000+i), 6))
			}
			before := objects(b, s)
			b.ReportAllocs()
			b.ResetTimer()
			for _, data := range fresh {
				d, err := s.PutRecording(data)
				if err != nil {
					b.Fatal(err)
				}
				sinkDigest = d
			}
			b.StopTimer()
			b.ReportMetric(float64(objects(b, s)-before)/float64(b.N), "files/op")
		})
	}
}

// BenchmarkPutPresent re-puts a recording that is already stored: a digest,
// a stat, and whatever the store adds to that.
func BenchmarkPutPresent(b *testing.B) {
	for _, preload := range []int{0, 512} {
		b.Run(fmt.Sprintf("preload=%d", preload), func(b *testing.B) {
			s := benchStore(b, preload)
			data := encode(testRecording(1_000_000, 6))
			if _, err := s.PutRecording(data); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := s.PutRecording(data)
				if err != nil {
					b.Fatal(err)
				}
				sinkDigest = d
			}
		})
	}
}

// BenchmarkHandleRead reads a whole recording back through the lazy handle:
// cold opens a handle per iteration, so every block is read and inflated;
// warm re-reads through one handle whose inflated-block cache is full.
func BenchmarkHandleRead(b *testing.B) {
	s := benchStore(b, 0)
	data := encode(testRecording(1, 64))
	digest, err := s.PutRecording(data)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, len(data))
	read := func(b *testing.B, h *store.Handle) {
		if _, err := h.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		// One recording in the store: a cold read opens its one object.
		b.ReportMetric(float64(objects(b, s)), "files/op")
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := s.OpenRecording(digest)
			if err != nil {
				b.Fatal(err)
			}
			read(b, h)
			h.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		h, err := s.OpenRecording(digest)
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		read(b, h)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, h)
		}
	})
	if store.Digest(buf) != digest {
		b.Fatal("handle read back different bytes")
	}
}

// BenchmarkGC is one collection over a store where everything is live:
// the mark over every ref and object header, the sweep's walk of the
// objects and the job directories, and the recount of the gauges.
func BenchmarkGC(b *testing.B) {
	const preload = 512
	b.Run(fmt.Sprintf("preload=%d", preload), func(b *testing.B) {
		s := benchStore(b, preload)
		files := objects(b, s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := s.GC(store.Policy{})
			if err != nil {
				b.Fatal(err)
			}
			if rep.LiveRecordings != preload || rep.ChunksRemoved != 0 {
				b.Fatalf("gc report: %+v", rep)
			}
		}
		b.ReportMetric(float64(files), "files/op")
	})
}
