package dplog

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"doubleplay/internal/vm"
)

// rawFrame hand-encodes a section frame around payload with whatever the
// caller wants the head to claim; the CRC is the payload's real one.
func rawFrame(epoch, flags, raw uint64, payload []byte) ([]byte, SectionInfo) {
	var e encoder
	crc := crc32.ChecksumIEEE(payload)
	e.byte(sectionMarker)
	e.u(epoch)
	e.u(flags)
	e.u(raw)
	e.u(uint64(len(payload)))
	e.u(uint64(crc))
	return append(e.b, payload...), SectionInfo{Epoch: int(epoch), Stored: int64(len(payload)), Raw: int64(raw), Flags: flags, CRC: crc}
}

// layout assembles a file by hand: header h (section count and all,
// verbatim), each frame preceded by pad[i] junk bytes, then an index
// listing the frames' true offsets in the order perm gives (nil = file
// order), and a footer with a correct index CRC.
func layout(h Header, frames [][]byte, infos []SectionInfo, pad []int, perm []int) []byte {
	var enc encoder
	enc.header(h, h.Sections)
	placed := make([]SectionInfo, len(frames))
	for i, f := range frames {
		if pad != nil {
			enc.b = append(enc.b, bytes.Repeat([]byte{0xEE}, pad[i])...)
		}
		placed[i] = infos[i]
		placed[i].Offset = int64(len(enc.b))
		enc.b = append(enc.b, f...)
	}
	entries := placed
	if perm != nil {
		entries = make([]SectionInfo, len(perm))
		for i, p := range perm {
			entries[i] = placed[p]
		}
	}
	enc.indexAndFooter(int64(len(enc.b)), entries)
	return enc.b
}

// framesOf lifts the verbatim frames and index entries out of an intact
// encoding.
func framesOf(t *testing.T, data []byte) (Header, [][]byte, []SectionInfo) {
	t.Helper()
	rd, err := OpenReaderBytes(data)
	if err != nil || rd.Recovered() {
		t.Fatalf("framesOf: err=%v recovered=%v", err, rd != nil && rd.Recovered())
	}
	var frames [][]byte
	for i := range rd.index {
		_, f, _, err := rd.frame(nil, rd.index[i].Offset, &rd.index[i])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return rd.Header(), frames, rd.Sections()
}

// TestUnmarshalIsTheReader pins how the two entry points relate now that
// there is one decoder: UnmarshalBytes (and Unmarshal over a stream) is
// OpenReaderBytes().Recording(), and it fails exactly when the reader had
// to fall back to a recovery scan — over intact files and every way a
// file stops describing itself exactly.
func TestUnmarshalIsTheReader(t *testing.T) {
	rec := bigRecording(t, 6)
	type input struct {
		name      string
		data      []byte
		recovered bool
		sections  int // readable sections, when recovered
	}
	var inputs []input
	for _, opt := range []EncodeOptions{{}, {Compress: true}} {
		data := MarshalBytesWith(rec, opt)
		tag := fmt.Sprintf("compress=%v/", opt.Compress)
		h, frames, infos := framesOf(t, data)
		rd, _ := OpenReaderBytes(data)
		inputs = append(inputs, input{tag + "intact", data, false, 0})
		if relaid := layout(h, frames, infos, nil, nil); !bytes.Equal(relaid, data) {
			t.Fatal("layout helper does not reproduce the encoder's bytes")
		}
		for i, s := range rd.Sections() {
			inputs = append(inputs, input{fmt.Sprintf("%scut-at-section-%d", tag, i), data[:s.Offset], true, i})
		}
		inputs = append(inputs,
			input{tag + "cut-at-index", data[:rd.idxOff], true, 6},
			input{tag + "cut-mid-footer", data[:len(data)-5], true, 6},
		)
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-footerLen+8] ^= 0x01 // low byte of the footer's index CRC
		inputs = append(inputs,
			input{tag + "index-crc-flipped", flipped, true, 6},
			input{tag + "trailing-garbage", append(append([]byte(nil), data...), 'x'), true, 6},
			// Three junk bytes before section 2; the index points at every
			// frame's true offset, so only the tiling rule catches it.
			input{tag + "gap-between-sections", layout(h, frames, infos, []int{0, 0, 3, 0, 0, 0}, nil), true, 2},
			input{tag + "gap-before-index", layout(h, append(frames[:5:5], append(bytes.Clone(frames[5]), 0xEE)), infos, nil, nil), true, 6},
			input{tag + "index-out-of-file-order", layout(h, frames, infos, nil, []int{0, 2, 1, 3, 4, 5}), true, 6},
		)
		short := h
		short.Sections = 5 // the index still lists all six
		inputs = append(inputs, input{tag + "header-count-differs-from-index", layout(short, frames, infos, nil, nil), true, 6})
	}
	for _, in := range inputs {
		rd, err := OpenReaderBytes(in.data)
		if err != nil {
			t.Fatalf("%s: open: %v", in.name, err)
		}
		if rd.Recovered() != in.recovered {
			t.Fatalf("%s: recovered=%v, want %v", in.name, rd.Recovered(), in.recovered)
		}
		if in.recovered && rd.NumSections() != in.sections {
			t.Fatalf("%s: %d sections salvaged, want %d", in.name, rd.NumSections(), in.sections)
		}
		full, rerr := rd.Recording()
		if rerr != nil {
			t.Fatalf("%s: Recording: %v", in.name, rerr)
		}
		if _, err := rd.Chunks(); (err != nil) != in.recovered || (err != nil && !errors.Is(err, ErrNoChunks)) {
			t.Fatalf("%s: Chunks err = %v", in.name, err)
		}
		fromBytes, berr := UnmarshalBytes(in.data)
		fromStream, serr := Unmarshal(io.MultiReader(bytes.NewReader(in.data))) // a reader without Len
		sized, zerr := Unmarshal(bytes.NewReader(in.data))
		for how, got := range map[string]struct {
			rec *Recording
			err error
		}{"UnmarshalBytes": {fromBytes, berr}, "Unmarshal(stream)": {fromStream, serr}, "Unmarshal(sized)": {sized, zerr}} {
			if (got.err != nil) != rd.Recovered() {
				t.Fatalf("%s: %s err = %v, reader recovered = %v", in.name, how, got.err, rd.Recovered())
			}
			if got.err == nil && !reflect.DeepEqual(got.rec, full) {
				t.Fatalf("%s: %s differs from the reader's Recording", in.name, how)
			}
		}
	}
}

// TestFrameCrossChecks feeds the reader files that are laid out
// correctly — so they open intact — but whose frames, index entries and
// epoch bodies disagree with one another in each way the format forbids.
func TestFrameCrossChecks(t *testing.T) {
	rec := fixtureRecording()
	body := func(i int) []byte { b, _ := encodeEpochBody(nil, rec.Epochs[i]); return b }
	h := headerOf(rec)
	h.Sections = 1
	deflated := Deflate(nil, body(0))
	if deflated == nil {
		t.Fatal("fixture epoch 0 does not compress")
	}
	cases := []struct {
		name  string
		build func() []byte
		want  string
	}{
		{"frame epoch id differs from the body's", func() []byte {
			f, info := rawFrame(7, 0, uint64(len(body(0))), body(0))
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "carries epoch 0, frame declared 7"},
		{"frame certified flag differs from the body's", func() []byte {
			f, info := rawFrame(0, sectionCertified, uint64(len(body(0))), body(0))
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "certified flag disagrees"},
		{"trailing byte after the body", func() []byte {
			b := append(body(0), 0)
			f, info := rawFrame(0, 0, uint64(len(b)), b)
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "trailing bytes after epoch body"},
		{"body cut short inside the frame", func() []byte {
			b := body(0)[:len(body(0))-1]
			f, info := rawFrame(0, 0, uint64(len(b)), b)
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "unexpected EOF"},
		{"compressed payload inflates to less than declared", func() []byte {
			f, info := rawFrame(0, sectionCompressed, uint64(len(body(0))+1), deflated)
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "raw length"},
		{"compressed payload inflates past the declared length", func() []byte {
			f, info := rawFrame(0, sectionCompressed, uint64(len(body(0))-1), deflated)
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "expands past"},
		{"compressed payload followed by a byte the CRC covers", func() []byte {
			f, info := rawFrame(0, sectionCompressed, uint64(len(body(0))), append(deflated[:len(deflated):len(deflated)], 0))
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "after the final DEFLATE block"},
		{"payload byte flipped under an unchanged CRC", func() []byte {
			f, info := rawFrame(0, sectionCompressed, uint64(len(body(0))), deflated)
			f[len(f)-2] ^= 0x40
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "payload CRC"},
		{"index entry disagrees with its frame", func() []byte {
			f, info := rawFrame(0, 0, uint64(len(body(0))), body(0))
			info.CRC ^= 1 // same varint width: the file still tiles
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "disagrees with index"},
		{"no marker byte where the index says a frame starts", func() []byte {
			f, info := rawFrame(0, 0, uint64(len(body(0))), body(0))
			f[0] = 'X'
			return layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil)
		}, "no section marker"},
	}
	for _, tc := range cases {
		data := tc.build()
		rd, err := OpenReaderBytes(data)
		if err != nil || rd.Recovered() || rd.NumSections() != 1 {
			t.Fatalf("%s: open err=%v (want an intact one-section reader)", tc.name, err)
		}
		_, err = rd.EpochAt(0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: EpochAt = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if _, err := UnmarshalBytes(data); err == nil {
			t.Fatalf("%s: UnmarshalBytes accepted the file", tc.name)
		}
		// Chunks walks raw bodies, so it must refuse what EpochAt refuses
		// (a compressed section is one opaque span, checked to its CRC).
		mustFail := !rd.Sections()[0].Compressed() || strings.Contains(tc.want, "CRC")
		if _, err := rd.Chunks(); mustFail && err == nil {
			t.Fatalf("%s: Chunks accepted the file", tc.name)
		}
	}

	// CRC before inflate: a corrupt compressed payload must be refused on
	// its checksum, not by whatever the inflater makes of it.
	f, info := rawFrame(0, sectionCompressed, uint64(len(body(0))), deflated)
	f[len(f)-2] ^= 0x40
	rd, _ := OpenReaderBytes(layout(h, [][]byte{f}, []SectionInfo{info}, nil, nil))
	if _, err := rd.EpochAt(0); err == nil || strings.Contains(err.Error(), "inflate") {
		t.Fatalf("corrupt compressed payload: %v, want the CRC failure first", err)
	}

	// A frame head written with a padded (non-minimal) varint does not
	// have the length its index entry implies: the file does not tile.
	f, info = rawFrame(0, 0, uint64(len(body(0))), body(0))
	padded := append([]byte{sectionMarker, 0x80, 0x00}, f[2:]...) // epoch id 0 in two bytes
	rd, err := OpenReaderBytes(layout(h, [][]byte{padded}, []SectionInfo{info}, nil, nil))
	if err != nil || !rd.Recovered() || rd.NumSections() != 0 {
		t.Fatalf("padded frame head: err=%v recovered=%v sections=%d, want a recovered reader that stops at it",
			err, rd.Recovered(), rd.NumSections())
	}
	if _, _, _, err := rd.frame(nil, rd.bodyOff, nil); err == nil || !strings.Contains(err.Error(), "not minimally encoded") {
		t.Fatalf("padded frame head: frame err = %v", err)
	}

	// A raw section's two lengths are one number written twice.
	c := cursor{b: append([]byte{sectionMarker, 0, 0, 5, 4, 0}, make([]byte, 8)...)}
	if c.frameHead(); c.err == nil || !strings.Contains(c.err.Error(), "stored length 4 != raw length 5") {
		t.Fatalf("raw frame with raw != stored: %v", c.err)
	}

	// An index that lists one epoch id twice cannot be seeked by id.
	f0, i0 := rawFrame(0, 0, uint64(len(body(0))), body(0))
	two := h
	two.Sections = 2
	rd, err = OpenReaderBytes(layout(two, [][]byte{f0, f0}, []SectionInfo{i0, i0}, nil, nil))
	if err != nil || !rd.Recovered() || rd.NumSections() != 2 ||
		!strings.Contains(rd.damage.Error(), "lists epoch 0 twice") {
		t.Fatalf("duplicate epoch id: err=%v reader=%+v", err, rd)
	}
}

// TestFormatLimits crafts one input per bound of docs/FORMAT.md §7, each
// declaring a count or length one past its limit, and requires the
// decoder to refuse it by name — "too large" — not merely to run out of
// bytes.
func TestFormatLimits(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var e encoder
		for _, v := range vs {
			e.u(v)
		}
		return e.b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	pad := bytes.Repeat([]byte{0}, 64) // so no count is refused for want of bytes
	epochHead := uv(0, 0, 1, 2, 3)     // index, flags, three hashes
	syscallHead := uv(0, 0, 0, 0, 0, 0, 0, 0, 0)
	bodies := []struct {
		name string
		body []byte
	}{
		{"targets per epoch", cat(epochHead, uv(1<<20+1))},
		{"slices per epoch", cat(epochHead, uv(0, 1<<28+1))},
		{"syscalls per epoch", cat(epochHead, uv(0, 0, 1<<28+1))},
		{"signals per epoch", cat(epochHead, uv(0, 0, 0, 1<<28+1))},
		{"sync ops per epoch", cat(epochHead, uv(0, 0, 0, 0, 1<<28+1))},
		{"writes per syscall", cat(epochHead, uv(0, 0, 1), syscallHead, uv(1<<20+1))},
		{"words per syscall write", cat(epochHead, uv(0, 0, 1), syscallHead, uv(1, 0, 1<<24+1))},
	}
	for _, b := range bodies {
		c := cursor{b: cat(b.body, pad)}
		c.epochBody(new(EpochLog))
		if c.err == nil || !strings.Contains(c.err.Error(), "too large") {
			t.Fatalf("%s: body walker err = %v, want a too-large refusal", b.name, c.err)
		}
		// And through the front door: the same body as a section payload.
		payload := cat(b.body, pad)
		f, info := rawFrame(0, 0, uint64(len(payload)), payload)
		rd, err := OpenReaderBytes(layout(Header{Sections: 1}, [][]byte{f}, []SectionInfo{info}, nil, nil))
		if err != nil || rd.Recovered() {
			t.Fatalf("%s: open: %v", b.name, err)
		}
		if _, err := rd.EpochAt(0); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Fatalf("%s: EpochAt err = %v, want a too-large refusal", b.name, err)
		}
	}

	heads := []struct {
		name string
		head []byte
	}{
		{"epoch id", uv(1<<24+1, 0, 0, 0, 0)},
		{"raw section length", uv(0, sectionCompressed, 1<<30+1, 0, 0)},
		{"stored section length", uv(0, sectionCompressed, 0, 1<<30+1, 0)},
	}
	for _, hd := range heads {
		c := cursor{b: cat([]byte{sectionMarker}, hd.head, pad)}
		c.frameHead()
		if c.err == nil || !strings.Contains(c.err.Error(), "too large") {
			t.Fatalf("%s: frame head err = %v, want a too-large refusal", hd.name, c.err)
		}
	}
	c := cursor{b: cat([]byte{sectionMarker}, uv(0, 0, 0, 0, 1<<32), pad)}
	if c.frameHead(); c.err == nil || !strings.Contains(c.err.Error(), "does not fit 32 bits") {
		t.Fatalf("payload CRC: frame head err = %v", c.err)
	}

	file := func(fields ...[]byte) []byte {
		return cat(append([][]byte{[]byte(magic), uv(formatVersion)}, fields...)...)
	}
	for name, data := range map[string][]byte{
		"string length": file(uv(1<<20+1), pad),
		"section count": file(uv(0), uv(0, 0, 1<<24+1), pad),
	} {
		if _, err := OpenReaderBytes(data); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Fatalf("%s: open err = %v, want a too-large refusal", name, err)
		}
	}
	c = cursor{b: cat([]byte(indexMagic), uv(1<<24+1), pad)}
	if c.indexEntries(); c.err == nil || !strings.Contains(c.err.Error(), "too large") {
		t.Fatalf("index entries: err = %v, want a too-large refusal", c.err)
	}
}

// TestDeclaredLengthsAllocateNothing is the hostile-input bound: lengths
// a file merely declares — a frame's stored size, a count inside a body —
// must not turn into allocations until the bytes are there to back them.
func TestDeclaredLengthsAllocateNothing(t *testing.T) {
	// A 100-byte file: a valid header, then a frame claiming a 1 GiB
	// compressed payload. No footer, so the reader goes to recovery.
	var e encoder
	e.header(Header{Program: "hostile", Workers: 2}, 1)
	e.byte(sectionMarker)
	e.u(0)                 // epoch id
	e.u(sectionCompressed) // flags
	e.u(1 << 30)           // raw length
	e.u(1 << 30)           // stored length
	e.u(0)                 // crc
	data := append(e.b, make([]byte, 100-len(e.b))...)

	open := func() {
		rd, err := OpenReaderBytes(data)
		if err != nil || !rd.Recovered() || rd.NumSections() != 0 {
			t.Fatalf("hostile frame: err=%v, want a recovered reader with no sections", err)
		}
		rd, err = OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil || !rd.Recovered() || rd.NumSections() != 0 {
			t.Fatalf("hostile frame over a ReaderAt: err=%v", err)
		}
	}
	if got := bytesAllocated(open); got >= 64<<10 {
		t.Fatalf("opening a 100-byte file with a 1 GiB frame allocated %d bytes", got)
	}

	// A raw section whose body declares 2^28 sync records in a few bytes.
	var body encoder
	for _, v := range []uint64{0, 0, 1, 2, 3, 0, 0, 0, 0, 1 << 28} {
		body.u(v)
	}
	f, info := rawFrame(0, 0, uint64(len(body.b)), body.b)
	hostile := layout(Header{Sections: 1}, [][]byte{f}, []SectionInfo{info}, nil, nil)
	decode := func() {
		rd, err := OpenReaderBytes(hostile)
		if err != nil || rd.Recovered() {
			t.Fatalf("hostile body: open err=%v", err)
		}
		if _, err := rd.EpochAt(0); err == nil {
			t.Fatal("hostile body decoded")
		}
	}
	if got := bytesAllocated(decode); got >= 64<<10 {
		t.Fatalf("decoding a body that declares 2^28 records allocated %d bytes", got)
	}
}

// bytesAllocated reports the heap bytes f allocates (the smallest of a
// few runs, to shed anything the runtime does on the side).
func bytesAllocated(f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// failAfter accepts n bytes in all, then fails every write.
type failAfter struct {
	n   int
	buf bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if room := w.n - w.buf.Len(); len(p) > room {
		w.buf.Write(p[:room])
		return room, errDiskFull
	}
	return w.buf.Write(p)
}

// failOnce fails its at-th Write call (counting from zero) and accepts
// every other one.
type failOnce struct {
	at, calls int
	buf       bytes.Buffer
}

func (w *failOnce) Write(p []byte) (int, error) {
	w.calls++
	if w.calls-1 == w.at {
		return 0, errDiskFull
	}
	return w.buf.Write(p)
}

// TestWriteErrorsSurface pins that neither encoder entry point can lose a
// write failure: a writer that runs out of room after N bytes, for every N
// short of the output, makes WriteRange and marshalWith return its error,
// with nothing written past the failure.
func TestWriteErrorsSurface(t *testing.T) {
	rec := fixtureRecording()
	rec.Epochs[0].Syscalls[0].Writes = append(rec.Epochs[0].Syscalls[0].Writes,
		vm.MemWrite{Addr: 8192, Data: make([]vm.Word, 5000)}) // push the file past bufio's 4 KB
	data := MarshalBytesWith(rec, EncodeOptions{})
	rd, err := OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := rd.WriteRange(&whole, 0, 2); err != nil || !bytes.Equal(whole.Bytes(), data) {
		t.Fatalf("WriteRange of every epoch: err=%v, identical=%v", err, bytes.Equal(whole.Bytes(), data))
	}
	if len(data) <= 4096 {
		t.Fatalf("fixture is %d bytes; the test wants it past one bufio buffer", len(data))
	}
	for n := 0; n < len(data); n++ {
		w := &failAfter{n: n}
		if err := rd.WriteRange(w, 0, 2); !errors.Is(err, errDiskFull) {
			t.Fatalf("WriteRange into a writer that fails after %d of %d bytes returned %v", n, len(data), err)
		}
		if !bytes.Equal(w.buf.Bytes(), data[:n]) {
			t.Fatalf("WriteRange wrote %d bytes around a failure at %d, or the wrong ones", w.buf.Len(), n)
		}
		w = &failAfter{n: n}
		if err := marshalWith(w, rec, EncodeOptions{}); !errors.Is(err, errDiskFull) {
			t.Fatalf("MarshalWith into a writer that fails after %d of %d bytes returned %v", n, len(data), err)
		}
	}
	// The first failure sticks: a writer that fails one call and would take
	// the rest must not be handed the rest — a file with a hole in it.
	probe := &failOnce{at: -1}
	if err := rd.WriteRange(probe, 0, 2); err != nil {
		t.Fatal(err)
	}
	for at := 0; at < probe.calls; at++ {
		w := &failOnce{at: at}
		if err := rd.WriteRange(w, 0, 2); !errors.Is(err, errDiskFull) {
			t.Fatalf("WriteRange with write call %d of %d failing returned %v", at, probe.calls, err)
		}
		if w.calls != at+1 || !bytes.Equal(w.buf.Bytes(), data[:w.buf.Len()]) {
			t.Fatalf("WriteRange kept writing after call %d failed (%d calls, %d bytes)", at, w.calls, w.buf.Len())
		}
	}
}

// BenchmarkWords decodes a syscall write's data words, the bulk of an
// I/O-heavy log: one byte each as pfscan records file bytes, three as
// aget and webserve record packed payload words. MB/s is of encoded bytes.
func BenchmarkWords(b *testing.B) {
	for _, width := range []int{1, 3} {
		var e encoder
		rng := rand.New(rand.NewSource(int64(width)))
		dst := make([]int64, 4096)
		lo := int64(1) << (7 * (width - 1)) // zig-zagged values of exactly width bytes, both signs
		for range dst {
			e.i(unzigzag(uint64(lo + rng.Int63n(lo<<7-lo))))
		}
		b.Run(fmt.Sprintf("%dbyte", width), func(b *testing.B) {
			if len(e.b) != width*len(dst) {
				b.Fatalf("%d words encoded to %d bytes", len(dst), len(e.b))
			}
			b.SetBytes(int64(len(e.b)))
			for i := 0; i < b.N; i++ {
				c := cursor{b: e.b}
				if c.words(dst); c.err != nil || c.pos != len(e.b) {
					b.Fatal(c.err)
				}
			}
		})
	}
}
