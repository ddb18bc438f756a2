package dplog_test

import (
	"bytes"
	"testing"

	"doubleplay/internal/dplog"
)

// Results land here so the compiler cannot drop the measured calls.
var (
	sinkRec    *dplog.Recording
	sinkEpoch  *dplog.EpochLog
	sinkChunks []dplog.Chunk
)

// The read-side layer benchmarks: whole-file decode from a stream and
// through the reader, one random-access epoch fetch, and chunk
// enumeration, each over an I/O-heavy client, a server with large
// payloads and a small transactional log, compressed (the on-disk
// default) and raw (what the store chunks). MB/s is of encoded bytes.
func benchLogs(b *testing.B, run func(b *testing.B, data []byte)) {
	for _, name := range []string{"pfscan", "webserve", "kvdb"} {
		rec := recordOne(b, name)
		for _, enc := range []struct {
			name string
			opt  dplog.EncodeOptions
		}{{"comp", dplog.EncodeOptions{Compress: true}}, {"raw", dplog.EncodeOptions{}}} {
			data := dplog.MarshalBytesWith(rec, enc.opt)
			b.Run(name+"/"+enc.name, func(b *testing.B) {
				b.ReportAllocs()
				run(b, data)
			})
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	benchLogs(b, func(b *testing.B, data []byte) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			rec, err := dplog.Unmarshal(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			sinkRec = rec
		}
	})
}

func BenchmarkReaderRecording(b *testing.B) {
	benchLogs(b, func(b *testing.B, data []byte) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			rd, err := dplog.OpenReaderBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			if sinkRec, err = rd.Recording(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEpochAt fetches one section per iteration, cycling through the
// file, from a reader opened once: the sparse-replay and debugger path.
func BenchmarkEpochAt(b *testing.B) {
	benchLogs(b, func(b *testing.B, data []byte) {
		rd, err := dplog.OpenReaderBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		n := rd.NumSections()
		b.SetBytes(int64(len(data) / n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sinkEpoch, err = rd.EpochAt(i % n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChunks enumerates the dedup spans of an opened log: the
// store's put path.
func BenchmarkChunks(b *testing.B) {
	benchLogs(b, func(b *testing.B, data []byte) {
		rd, err := dplog.OpenReaderBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sinkChunks, err = rd.Chunks(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
