package dplog

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// flateInflate is the reference Inflate is held to: compress/flate's
// stream reader asked for exactly n bytes, then for end of stream, over a
// bytes.Reader (an io.ByteReader, so flate takes from it exactly the bytes
// it decodes) that must be drained when the stream ends.
func flateInflate(b []byte, n int64) ([]byte, error) {
	if n < 0 || n > maxDeflateRatio*int64(len(b)) {
		return nil, errors.New("declared length out of the stream's reach")
	}
	br := bytes.NewReader(b)
	zr := flate.NewReader(br)
	out := make([]byte, n)
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, err
	}
	var past [1]byte
	if m, err := zr.Read(past[:]); m != 0 || err != io.EOF {
		return nil, fmt.Errorf("after %d bytes: read %d more, err %v", n, m, err)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%d bytes after the final block", br.Len())
	}
	return out, nil
}

// checkInflate holds Inflate to the reference on one input: same verdict,
// and on acceptance the same n bytes. It inflates twice, into no
// destination and into a dirty one whose capacity is drawn from the input:
// the verdict and bytes must not depend on which, a destination with room
// must be the one filled, and no byte of it past n may change.
func checkInflate(t testing.TB, name string, b []byte, n int64) {
	t.Helper()
	want, werr := flateInflate(b, n)
	rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(b)) ^ n))
	dirty := make([]byte, rng.Intn(2*int(min(max(n, 0), 1<<17))+64))
	rng.Read(dirty)
	before := bytes.Clone(dirty)
	for _, dst := range [][]byte{nil, dirty[:0]} {
		got, err := Inflate(dst, b, n)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("%s (n=%d, cap %d): Inflate err %v, compress/flate err %v", name, n, cap(dst), err, werr)
		case err == nil && (int64(len(got)) != n || !bytes.Equal(got, want)):
			t.Fatalf("%s (n=%d, cap %d): Inflate and compress/flate disagree on the bytes", name, n, cap(dst))
		case err != nil && got != nil:
			t.Fatalf("%s (n=%d, cap %d): Inflate returned bytes with an error", name, n, cap(dst))
		case err == nil && n > 0 && int64(cap(dst)) >= n && &got[0] != &dirty[0]:
			t.Fatalf("%s (n=%d, cap %d): Inflate did not fill a destination with room", name, n, cap(dst))
		}
	}
	switch keep := max(n, 0); {
	case int64(len(dirty)) < keep && !bytes.Equal(dirty, before):
		t.Fatalf("%s (n=%d, cap %d): Inflate wrote into a destination without room", name, n, len(dirty))
	case int64(len(dirty)) >= keep && !bytes.Equal(dirty[keep:], before[keep:]):
		t.Fatalf("%s (n=%d, cap %d): Inflate wrote past n", name, n, len(dirty))
	}
}

// bitw writes a DEFLATE stream by hand: fields least significant bit
// first, Huffman codes most significant bit first.
type bitw struct {
	b   []byte
	acc uint64
	n   uint
}

func (w *bitw) bits(v uint64, k uint) *bitw {
	w.acc |= v << w.n
	for w.n += k; w.n >= 8; w.n -= 8 {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// bytes pads the last byte with zeros.
func (w *bitw) bytes() []byte {
	if w.n > 0 {
		return append(w.b, byte(w.acc))
	}
	return w.b
}

// code is a canonical Huffman code (RFC 1951 §3.2.2) for hand-made blocks.
type code struct {
	lens  []uint8
	codes []uint16
}

func canon(lens []uint8) code {
	var count, next [17]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l+1] = (next[l] + count[l]) << 1
	}
	c := code{lens: lens, codes: make([]uint16, len(lens))}
	for s, l := range lens {
		if l != 0 {
			c.codes[s] = next[l]
			next[l]++
		}
	}
	return c
}

func (w *bitw) sym(c code, s int) *bitw {
	for i := int(c.lens[s]) - 1; i >= 0; i-- {
		w.bits(uint64(c.codes[s]>>i&1), 1)
	}
	return w
}

// plainClen is a code-length code with no repeat symbols: lengths 0..15,
// four bits each.
var plainClen = func() code {
	lens := make([]uint8, 19)
	for s := 0; s < 16; s++ {
		lens[s] = 4
	}
	return canon(lens)
}()

// dynamic opens a final dynamic block declaring nlit and ndist code
// lengths (which may be out of range) under the code-length code cl, and
// writes the lengths given, one symbol each.
func (w *bitw) dynamic(cl code, nlit, ndist int, lens ...uint8) *bitw {
	w.bits(1, 1).bits(2, 2).bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(19-4, 4)
	for _, s := range clenOrder {
		w.bits(uint64(cl.lens[s]), 3)
	}
	for _, l := range lens {
		w.sym(cl, int(l))
	}
	return w
}

// join is the literal/length code lengths followed by the distance ones,
// as a dynamic block's header lists them.
func join(lit []uint8, dist ...uint8) []uint8 { return append(append([]uint8(nil), lit...), dist...) }

// litLens returns n literal/length code lengths, zero but for the pairs
// (symbol, length) given.
func litLens(n int, pairs ...int) []uint8 {
	lens := make([]uint8, n)
	for i := 0; i < len(pairs); i += 2 {
		lens[pairs[i]] = uint8(pairs[i+1])
	}
	return lens
}

type inflateCase struct {
	name string
	b    []byte
	n    int64
	ok   bool // what compress/flate must say; the table test checks the cases mean what they claim
}

// handMade are the streams no compressor writes: the corners of RFC 1951
// and of compress/flate's reading of it.
func handMade() []inflateCase {
	var cases []inflateCase
	add := func(name string, w *bitw, n int64, ok bool) {
		cases = append(cases, inflateCase{name, w.bytes(), n, ok})
	}

	// Literals 0..14 under code lengths 1..14, 15, with the end-of-block
	// code the other 15-bit one: six codes longer than the primary table.
	long := litLens(257, 256, 15)
	for s := 0; s < 15; s++ {
		long[s] = uint8(min(s+1, 15))
	}
	lc := canon(long)
	w := new(bitw).dynamic(plainClen, 257, 1, join(long, 0)...)
	for s := 0; s < 15; s++ {
		w.sym(lc, s)
	}
	add("codes longer than the primary table", w.sym(lc, 256), 15, true)
	w = new(bitw).dynamic(plainClen, 257, 1, join(long, 0)...)
	add("long code cut short by the end of input", w.sym(lc, 0).bits(0x1ff, 9), 1, false)

	// One distance code of one bit, as zlib writes for a single distance:
	// 'a', then a match of 3 at distance 1, then end of block.
	one := canon(litLens(258, 'a', 1, 256, 2, 257, 2))
	head := func() *bitw {
		return new(bitw).dynamic(plainClen, 258, 1, join(one.lens, 1)...).sym(one, 'a').sym(one, 257)
	}
	add("one-code distance set", head().bits(0, 1).sym(one, 256), 4, true)
	add("one-code distance set, the unassigned code", head().bits(1, 1).sym(one, 256), 4, false)
	add("empty distance set, used", new(bitw).dynamic(plainClen, 258, 1, join(one.lens, 0)...).
		sym(one, 'a').sym(one, 257).bits(0, 1).sym(one, 256), 4, false)
	add("empty distance set, unused", new(bitw).dynamic(plainClen, 258, 1, join(one.lens, 0)...).
		sym(one, 'a').sym(one, 256), 1, true)

	// Code sets compress/flate refuses: incomplete, over-subscribed.
	add("incomplete literal code", new(bitw).dynamic(plainClen, 257, 1, join(litLens(257, 'a', 2, 256, 2), 0)...).bits(0, 16), 0, false)
	add("over-subscribed literal code", new(bitw).dynamic(plainClen, 257, 1, join(litLens(257, 'a', 1, 'b', 1, 256, 1), 0)...).bits(0, 16), 0, false)
	add("one-code literal set", new(bitw).dynamic(plainClen, 257, 1, join(litLens(257, 256, 1), 0)...).bits(0, 1), 0, true)
	add("incomplete code-length code", new(bitw).dynamic(canon(litLens(19, 0, 1, 1, 2)), 257, 1).bits(0, 64), 0, false)

	// Counts past what the format has symbols for.
	add("HLIT over 286", new(bitw).dynamic(plainClen, 287, 1, join(litLens(287, 256, 1), 0)...).bits(0, 1), 0, false)
	add("HDIST over 30", new(bitw).dynamic(plainClen, 257, 31, join(litLens(257, 256, 1), make([]uint8, 31)...)...).bits(0, 1), 0, false)

	// Repeat codes: "previous length" with no previous, and a run that
	// overshoots the declared count.
	rep := litLens(19, 16, 4, 17, 4)
	for s := 0; s < 14; s++ {
		rep[s] = 4
	}
	rc := canon(rep)
	add("repeat code at position 0", new(bitw).dynamic(rc, 257, 1).sym(rc, 16).bits(0, 2).bits(0, 64), 0, false)
	add("repeat run past the last length", new(bitw).dynamic(rc, 257, 1, make([]uint8, 256)...).sym(rc, 17).bits(7, 3).bits(0, 64), 0, false)
	w = new(bitw).dynamic(rc, 257, 1, 1) // literal 0: one bit; then 255 zeros in runs, then EOB: one bit
	for left := 255; left > 0; {
		run := min(left, 10)
		if left-run > 0 && left-run < 3 {
			run -= 3
		}
		w.sym(rc, 17).bits(uint64(run-3), 3)
		left -= run
	}
	add("zero runs across the literal lengths", w.sym(rc, 1).sym(rc, 0).bits(0, 3).bits(1, 1), 3, true)

	// Fixed blocks: a match before any output, the symbols that have codes
	// but no meaning, and well-formed ones.
	fl, fd := make([]uint8, 288), bytes.Repeat([]byte{5}, 32)
	for s := range fl {
		switch {
		case s < 144, s >= 280:
			fl[s] = 8
		case s < 256:
			fl[s] = 9
		default:
			fl[s] = 7
		}
	}
	lit, dist := canon(fl), canon(fd)
	fixed := func(final uint64) *bitw { return new(bitw).bits(final, 1).bits(1, 2) }
	add("distance beyond output", fixed(1).sym(lit, 257).sym(dist, 0).sym(lit, 256), 3, false)
	add("fixed literal 286", fixed(1).sym(lit, 'a').sym(lit, 286).sym(dist, 0).sym(lit, 256), 4, false)
	add("fixed distance 30", fixed(1).sym(lit, 'a').sym(lit, 257).sym(dist, 30).sym(lit, 256), 4, false)
	add("fixed block", fixed(1).sym(lit, 'a').sym(lit, 257).sym(dist, 0).sym(lit, 256), 4, true)
	add("match with extra bits", fixed(1).sym(lit, 'a').sym(lit, 'b').sym(lit, 'c').sym(lit, 'd').sym(lit, 'e').
		sym(lit, 269).bits(1, 2).sym(dist, 4).bits(0, 1).sym(lit, 256), 25, true) // length 19+1, distance 5+0
	add("two fixed blocks", fixed(0).sym(lit, 'a').sym(lit, 256).bits(1, 1).bits(1, 2).sym(lit, 256), 1, true)
	add("reserved block type", new(bitw).bits(1, 1).bits(3, 2).bits(0, 16), 0, false)

	// Stored blocks.
	add("empty stored block", new(bitw).bits(1, 1).bits(0, 2).bits(0, 5).bits(0, 16).bits(0xffff, 16), 0, true)
	add("stored block", new(bitw).bits(1, 1).bits(0, 2).bits(0, 5).bits(2, 16).bits(0xfffd, 16).bits('h', 8).bits('i', 8), 2, true)
	add("stored length and its complement disagree", new(bitw).bits(1, 1).bits(0, 2).bits(0, 5).bits(2, 16).bits(0xfffe, 16).bits('h', 8).bits('i', 8), 2, false)
	add("stored block cut short", new(bitw).bits(1, 1).bits(0, 2).bits(0, 5).bits(2, 16).bits(0xfffd, 16).bits('h', 8), 2, false)
	add("no final block", new(bitw).bits(0, 1).bits(0, 2).bits(0, 5).bits(0, 16).bits(0xffff, 16), 0, false)
	return cases
}

// written are streams compress/flate's own compressor writes: stored,
// fixed and dynamic blocks, one and many per stream, at every level the
// format's writers might have used. Kept small: the fuzzer minimises what
// it derives from them, and a 30-second CI slot must not go on that.
func written(t testing.TB) []inflateCase {
	rng := rand.New(rand.NewSource(23))
	text := bytes.Repeat([]byte("epoch 17: tid 3 retired 40960; read(5, 0x100400, 512) = 512\n"), 60)
	noise := make([]byte, 600)
	rng.Read(noise)
	skewed := make([]byte, 4000) // geometric over 40 symbols: literal codes past 9 bits
	for i := range skewed {
		for skewed[i] = 0; skewed[i] < 39 && rng.Intn(2) == 0; skewed[i]++ {
		}
	}
	var cases []inflateCase
	for _, level := range []int{0, 1, 6, 9, flate.HuffmanOnly} {
		for _, in := range []struct {
			name   string
			pieces [][]byte
		}{
			{"empty", nil},
			{"short", [][]byte{[]byte("dp")}},
			{"text", [][]byte{text}},
			{"noise", [][]byte{noise}},
			{"skewed", [][]byte{skewed}},
			{"flushed", [][]byte{text[:700], noise[:300], nil, skewed[:1000], text}},
			{"window", [][]byte{bytes.Repeat(noise, 55), noise}}, // matches at distances up to 32 KB
		} {
			var z bytes.Buffer
			zw, err := flate.NewWriter(&z, level)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, p := range in.pieces {
				zw.Write(p)
				zw.Flush()
				n += len(p)
			}
			zw.Close()
			cases = append(cases, inflateCase{fmt.Sprintf("level %d/%s", level, in.name), z.Bytes(), int64(n), true})
		}
	}
	return cases
}

// goldenSections are the compressed section payloads of the committed
// golden logs.
func goldenSections(t testing.TB) []inflateCase {
	var cases []inflateCase
	files, _ := filepath.Glob("testdata/v6_*.dplog")
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := OpenReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		for i, info := range rd.index {
			if _, payload, err := rd.section(nil, i); err != nil {
				t.Fatal(err)
			} else if info.Compressed() {
				cases = append(cases, inflateCase{fmt.Sprintf("%s section %d", filepath.Base(f), i), payload, info.Raw, true})
			}
		}
	}
	if len(cases) == 0 {
		t.Fatal("no compressed section in testdata/")
	}
	return cases
}

func inflateCases(t testing.TB) []inflateCase {
	return append(append(goldenSections(t), written(t)...), handMade()...)
}

// TestInflateMatchesFlate runs every seed of FuzzInflate, and around each
// one its neighbours — every truncation, n one off either way, a byte
// after the final block, single bit flips — through both decoders.
func TestInflateMatchesFlate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range inflateCases(t) {
		if _, err := flateInflate(c.b, c.n); (err == nil) != c.ok {
			t.Fatalf("%s: the case does not test what it says: compress/flate returned %v", c.name, err)
		}
		checkInflate(t, c.name, c.b, c.n)
		checkInflate(t, c.name+", n-1", c.b, c.n-1)
		checkInflate(t, c.name+", n+1", c.b, c.n+1)
		checkInflate(t, c.name+", trailing byte", append(c.b[:len(c.b):len(c.b)], 0), c.n)
		step := max(1, len(c.b)/200)
		for cut := 0; cut < len(c.b); cut += step {
			checkInflate(t, fmt.Sprintf("%s, cut at %d", c.name, cut), c.b[:cut], c.n)
		}
		for i := 0; i < 64 && len(c.b) > 0; i++ {
			hurt := append([]byte(nil), c.b...)
			at := rng.Intn(len(hurt) * 8)
			if i < 32 {
				at %= min(len(hurt)*8, 160) // block headers and code lengths live here
			}
			hurt[at/8] ^= 1 << (at % 8)
			checkInflate(t, fmt.Sprintf("%s, bit %d flipped", c.name, at), hurt, c.n)
		}
	}
}

// FuzzInflate holds the one-shot decoder to compress/flate on arbitrary
// bytes under an arbitrary declared length: Inflate succeeds exactly when
// the reference reads n bytes, then end of stream, with its input drained,
// and then with the same bytes; it never panics.
func FuzzInflate(f *testing.F) {
	for _, c := range inflateCases(f) {
		f.Add(c.b, c.n)
	}
	f.Fuzz(func(t *testing.T, b []byte, n int64) {
		checkInflate(t, "fuzz input", b, n)
	})
}
