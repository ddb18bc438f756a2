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
	sinkBytes  []byte
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

// deflated is one input of BenchmarkInflate: a stream and its raw length.
type deflated struct {
	z   []byte
	raw int64
}

// BenchmarkInflate decodes what the read side hands Inflate — "section":
// every compressed section payload of the three logs as written;
// "block": every 64 KiB block the store keeps compressed for the three raw
// encodings — through the one-shot decoder and, under /flate, through the
// compress/flate reference the tests hold it to. MB/s is of raw bytes.
func BenchmarkInflate(b *testing.B) {
	var sections, blocks []deflated
	for _, name := range []string{"pfscan", "webserve", "kvdb"} {
		rec := recordOne(b, name)
		for _, compress := range []bool{true, false} {
			data := dplog.MarshalBytesWith(rec, dplog.EncodeOptions{Compress: compress})
			rd, err := dplog.OpenReaderBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			spans, err := rd.Chunks()
			if err != nil {
				b.Fatal(err)
			}
			byEpoch := map[int]dplog.SectionInfo{}
			for _, s := range rd.Sections() {
				byEpoch[s.Epoch] = s
			}
			for _, c := range spans {
				span := data[c.Offset : c.Offset+c.Len]
				if c.Kind == dplog.ChunkSection { // the payload is the tail of its frame
					s := byEpoch[c.Epoch]
					sections = append(sections, deflated{span[c.Len-s.Stored:], s.Raw})
				}
			}
			for off := 0; !compress && off < len(data); off += 64 << 10 {
				raw := data[off:min(off+64<<10, len(data))]
				if z := dplog.Deflate(nil, raw); z != nil {
					blocks = append(blocks, deflated{z, int64(len(raw))})
				}
			}
		}
	}
	for _, in := range []struct {
		name string
		set  []deflated
	}{{"section", sections}, {"block", blocks}} {
		for _, impl := range []struct {
			name    string
			inflate func([]byte, int64) ([]byte, error)
		}{{in.name, dplog.Inflate}, {in.name + "/flate", dplog.FlateInflate}} {
			b.Run(impl.name, func(b *testing.B) {
				var total int64
				for _, d := range in.set {
					total += d.raw
				}
				b.SetBytes(total)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, d := range in.set {
						out, err := impl.inflate(d.z, d.raw)
						if err != nil {
							b.Fatal(err)
						}
						sinkBytes = out
					}
				}
			})
		}
	}
}
