package dplog

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestPooledCodecConcurrent marshals and unmarshals different recordings
// from several goroutines at once, so compressors and decompressors are
// handed from one to another through the pools mid-stream, and requires
// every goroutine's bytes to equal a serial run's. Under -race it is also
// the check that a pooled codec is never shared.
func TestPooledCodecConcurrent(t *testing.T) {
	const workers, rounds = 8, 4
	recs := make([]*Recording, workers)
	want := make([][]byte, workers)
	for i := range recs {
		recs[i] = bigRecording(t, 4+3*i)
		recs[i].Seed = int64(i)
		want[i] = MarshalBytes(recs[i])
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := MarshalBytes(recs[i])
				if !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d round %d: marshalled bytes differ from the serial run", i, r)
					return
				}
				back, err := UnmarshalBytes(got)
				if err != nil {
					t.Errorf("goroutine %d round %d: unmarshal: %v", i, r, err)
					return
				}
				if again := MarshalBytes(back); !bytes.Equal(again, want[i]) {
					t.Errorf("goroutine %d round %d: round trip changed the bytes", i, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestInflateRecoversAfterCorruptStream feeds the pooled decoder a damaged
// stream, a short one, an over-long one and one with a byte after its final
// block, then a good one: a decoder that failed goes back to the pool, and
// whoever draws it next must not see the failure.
func TestInflateRecoversAfterCorruptStream(t *testing.T) {
	raw := bytes.Repeat([]byte("doubleplay epoch section "), 400)
	z := Deflate(nil, raw)
	if z == nil {
		t.Fatal("compressible input was not compressed")
	}
	bad := append([]byte(nil), z...)
	for i := len(bad) / 2; i < len(bad)/2+8; i++ {
		bad[i] ^= 0xff
	}
	for round := 0; round < 4; round++ {
		if out, err := Inflate(nil, bad, int64(len(raw))); err == nil && bytes.Equal(out, raw) {
			t.Fatal("corrupt stream inflated to the original bytes")
		}
		if _, err := Inflate(nil, z[:len(z)/2], int64(len(raw))); err == nil {
			t.Fatal("truncated stream inflated without error")
		}
		if _, err := Inflate(nil, z, int64(len(raw))-1); err == nil {
			t.Fatal("stream longer than its bound inflated without error")
		}
		if _, err := Inflate(nil, append(z[:len(z):len(z)], 0), int64(len(raw))); err == nil {
			t.Fatal("stream with a byte after its final block inflated without error")
		}
		// Refused before the buffer is made: making it would end the test.
		if _, err := Inflate(nil, z, 1<<40); err == nil {
			t.Fatal("a length no stream of this size can reach inflated without error")
		}
		out, err := Inflate(nil, z, int64(len(raw)))
		if err != nil {
			t.Fatalf("round %d: good stream after a failed one: %v", round, err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("round %d: good stream after a failed one inflated to different bytes", round)
		}
	}

	// The same through the decoder: one flipped payload byte fails that
	// section's CRC or inflate, and the intact file still decodes after.
	data := MarshalBytes(bigRecording(t, 6))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		hurt := append([]byte(nil), data...)
		hurt[len(hurt)/4+rng.Intn(len(hurt)/2)] ^= 0x40
		UnmarshalBytes(hurt) // may or may not fail; must not poison the pool
		if _, err := UnmarshalBytes(data); err != nil {
			t.Fatalf("intact recording failed to decode after a corrupt one: %v", err)
		}
	}
}

// BenchmarkMarshal encodes one many-epoch recording in the compressed
// on-disk format, the call core.Record makes to size its log and the
// store makes per put. Allocation is reported because the compressor's
// state used to dominate it.
func BenchmarkMarshal(b *testing.B) {
	rec := bigRecording(b, 64)
	b.ReportAllocs()
	b.SetBytes(int64(len(MarshalBytes(rec))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MarshalBytes(rec)
	}
}

// TestUnmarshalBufferReuse overwrites the pooled buffer Unmarshal read its
// input into, once the call has returned it, and requires the recording it
// decoded to stay equal to the original: nothing decoded aliases that
// buffer, which is what lets it go back to the pool.
func TestUnmarshalBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		rec := randomRecording(rng)
		data := MarshalBytesWith(rec, EncodeOptions{Compress: i%2 == 0})
		// Under -race the pool drops a share of what it is given: draw until
		// the buffer that comes back is the one this Unmarshal used.
		for try := 0; ; try++ {
			got, err := Unmarshal(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			buf := readBufs.Get().(*bytes.Buffer)
			if !bytes.Equal(buf.Bytes(), data) {
				if try == 100 {
					t.Fatal("the pool never gave back the buffer Unmarshal read into")
				}
				continue
			}
			b := buf.Bytes()[:buf.Cap()]
			for j := range b {
				b[j] = ^b[j]
			}
			readBufs.Put(buf)
			if !reflect.DeepEqual(normalize(got), normalize(rec)) {
				t.Fatalf("recording %d: overwriting Unmarshal's read buffer changed the recording it returned", i)
			}
			break
		}
	}
}
