package dplog

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// checkCoverage asserts the chunk list is contiguous, covers the file
// exactly, and reassembles it bit for bit.
func checkCoverage(t *testing.T, data []byte, chunks []Chunk) {
	t.Helper()
	var next int64
	var out bytes.Buffer
	for i, c := range chunks {
		if c.Offset != next {
			t.Fatalf("chunk %d (%s) starts at %d, want %d", i, c.Kind, c.Offset, next)
		}
		if c.Len <= 0 {
			t.Fatalf("chunk %d (%s) has length %d", i, c.Kind, c.Len)
		}
		out.Write(data[c.Offset : c.Offset+c.Len])
		next = c.Offset + c.Len
	}
	if next != int64(len(data)) {
		t.Fatalf("chunks end at %d, file has %d bytes", next, len(data))
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("reassembled chunks differ from the file")
	}
}

func TestChunksCoverFile(t *testing.T) {
	rec := fixtureRecording()
	for _, tc := range []struct {
		name     string
		compress bool
	}{{"uncompressed", false}, {"compressed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			data := MarshalBytesWith(rec, EncodeOptions{Compress: tc.compress})
			rd, err := OpenReaderBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			chunks, err := rd.Chunks()
			if err != nil {
				t.Fatal(err)
			}
			checkCoverage(t, data, chunks)
			if chunks[0].Kind != ChunkHeader || chunks[0].Epoch != -1 {
				t.Fatalf("first chunk = %+v, want header", chunks[0])
			}
			last := chunks[len(chunks)-1]
			if last.Kind != ChunkIndex || last.Epoch != -1 {
				t.Fatalf("last chunk = %+v, want index", last)
			}
			// Every section contributes at least one span carrying its
			// epoch id.
			seen := map[int]bool{}
			for _, c := range chunks {
				if c.Epoch >= 0 {
					seen[c.Epoch] = true
				}
			}
			for _, ep := range rec.Epochs {
				if !seen[ep.Index] {
					t.Fatalf("no chunk carries epoch %d", ep.Index)
				}
			}
		})
	}
}

// TestChunksSplitUncompressedSections pins the dedup-critical property:
// an uncompressed section with a sizeable syscall group is split at the
// group boundary, and two recordings that differ only in their
// seed-entangled metadata share the syscall span byte for byte.
func TestChunksSplitUncompressedSections(t *testing.T) {
	build := func(hash uint64) *Recording {
		rec := fixtureRecording()
		for _, ep := range rec.Epochs {
			ep.StartHash += hash
			ep.EndHash += hash
			ep.CommitHash += hash
		}
		rec.FinalHash += hash
		return rec
	}
	span := func(t *testing.T, rec *Recording) []byte {
		t.Helper()
		data := MarshalBytesWith(rec, EncodeOptions{Compress: false})
		rd, err := OpenReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := rd.Chunks()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if c.Kind == ChunkSyscalls && c.Epoch == 0 {
				return data[c.Offset : c.Offset+c.Len]
			}
		}
		t.Fatalf("no syscall chunk for epoch 0 in %v", chunks)
		return nil
	}
	a := span(t, build(0))
	b := span(t, build(0x9999))
	if !bytes.Equal(a, b) {
		t.Fatalf("syscall spans differ across seed-perturbed recordings:\n%x\n%x", a, b)
	}
}

func TestChunksRefusesLegacyAndRecovered(t *testing.T) {
	// A retired flat stream never gets as far as a reader to chunk.
	legacy, err := os.ReadFile(goldenPath("v5.dplog"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReaderBytes(legacy); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("legacy open err = %v, want ErrBadVersion", err)
	}

	// Truncate a v6 log mid-index: the reader recovers, but chunk
	// enumeration must refuse (no intact index span to reproduce).
	data := MarshalBytes(fixtureRecording())
	trunc := data[:len(data)-footerLen-2]
	rd, err := OpenReaderBytes(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Recovered() {
		t.Fatal("truncated log did not enter recovery")
	}
	if _, err := rd.Chunks(); !errors.Is(err, ErrNoChunks) {
		t.Fatalf("recovered Chunks() err = %v, want ErrNoChunks", err)
	}
}
