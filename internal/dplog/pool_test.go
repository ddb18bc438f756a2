package dplog

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
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

// TestWarmDecodeAllocatesNothing requires the two decodes that throw away
// what they read to allocate nothing once their pools and buffers are
// warm: Verify, on a reader over memory and over an io.ReaderAt, and
// DecodeAt through an io.ReaderAt into an EpochLog that has already held
// every section. The section frames, header prefix, footer and index a
// ReaderAt-backed reader fetches go into pooled buffers, and Verify
// decodes into a pooled EpochLog.
func TestWarmDecodeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	// AllocsPerRun measures at GOMAXPROCS 1, and a sync.Pool drops what it
	// holds when GOMAXPROCS changes: set it first, so the warm-up passes
	// fill the pools the measured passes draw from. A pass can outgrow an
	// array that holds arrays (a syscall's writes), which the next pass
	// then grows again, so each warm-up is a few passes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rec, rng := bigRecording(t, 8), rand.New(rand.NewSource(5))
	for _, ep := range rec.Epochs { // syscalls and their write data too
		for len(ep.Syscalls) < 8 {
			for _, e := range randomRecording(rng).Epochs {
				ep.Syscalls = append(ep.Syscalls, e.Syscalls...)
			}
		}
	}
	for _, compress := range []bool{false, true} {
		data := MarshalBytesWith(rec, EncodeOptions{Compress: compress})
		mem, err := OpenReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		at, err := OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for name, rd := range map[string]*Reader{"memory": mem, "ReaderAt": at} {
			verify := func() {
				if err := rd.Verify(); err != nil {
					t.Fatal(err)
				}
			}
			for range 4 {
				verify()
			}
			if n := testing.AllocsPerRun(20, verify); n != 0 {
				t.Errorf("compress=%v, %s: a warm Verify allocates %v times", compress, name, n)
			}
		}
		var ep EpochLog
		decodeAll := func() {
			for pos := range at.NumSections() {
				if err := at.DecodeAt(pos, &ep); err != nil {
					t.Fatal(err)
				}
			}
		}
		for range 4 {
			decodeAll()
		}
		if n := testing.AllocsPerRun(20, decodeAll); n != 0 {
			t.Errorf("compress=%v: DecodeAt through a ReaderAt into a warm EpochLog allocates %v times per pass", compress, n)
		}
	}
}
