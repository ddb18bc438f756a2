package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/store"
)

// ---- the recording object ----

// blocksRecording is raw bytes that span three object blocks: two that
// compress and a last one that does not, so an object of it holds both
// block forms.
func blocksRecording() []byte {
	raw := bytes.Repeat([]byte("doubleplay epoch "), 2*store.ObjectBlock/17+1)[:2*store.ObjectBlock]
	noise := make([]byte, 3000)
	rand.New(rand.NewSource(1)).Read(noise)
	return append(raw, noise...)
}

// resealed recomputes an object's header CRC after a test has edited the
// header, so that only the edit is wrong.
func resealed(obj []byte) []byte {
	out := bytes.Clone(obj)
	hlen := 21 + 4*int(binary.LittleEndian.Uint32(out[17:])) + 4
	binary.LittleEndian.PutUint32(out[hlen-4:], crc32.ChecksumIEEE(out[:hlen-4]))
	return out
}

// badObjects are damaged encodings of blocksRecording, each wrong in one
// way; the decoder must refuse every one.
func badObjects() []struct {
	name string
	data []byte
} {
	good := store.EncodeObject(blocksRecording())
	raw := binary.LittleEndian.Uint64(good[9:])
	withRaw := func(n uint64) []byte {
		out := bytes.Clone(good)
		binary.LittleEndian.PutUint64(out[9:], n)
		return resealed(out)
	}
	withEntry := func(i int, delta uint32) []byte {
		out := bytes.Clone(good)
		e := binary.LittleEndian.Uint32(out[21+4*i:])
		binary.LittleEndian.PutUint32(out[21+4*i:], e+delta)
		return resealed(out)
	}
	return []struct {
		name string
		data []byte
	}{
		{"truncated in the fixed header", good[:12]},
		{"truncated in the block table", good[:27]},
		{"truncated in the last block", good[:len(good)-1]},
		{"a block more than the raw length needs", withRaw(raw - 3000)},
		{"a block fewer than the raw length needs", withRaw(raw + store.ObjectBlock)},
		{"a raw length the last raw block does not hold", withRaw(raw - 1)},
		{"stored lengths that run past the file", withEntry(0, 1)},
		{"stored lengths that stop short of it", append(bytes.Clone(good), 0)},
		{"a DEFLATE block no smaller than its raw bytes", withEntry(1, store.ObjectBlock)},
		{"a bad header CRC", flip(good, 10)},
		{"a bad magic", append([]byte("DPRX"), good[4:]...)},
		{"another version", resealed(append(append([]byte("DPRO"), 2), good[5:]...))},
		{"another block size", resealed(append(append(bytes.Clone(good[:5]), 0, 0, 2, 0), good[9:]...))},
	}
}

// TestObjectRoundTrip encodes recordings of every length around the block
// boundaries, compressible and not, and decodes them back.
func TestObjectRoundTrip(t *testing.T) {
	noise := make([]byte, 3*store.ObjectBlock+5)
	rand.New(rand.NewSource(2)).Read(noise)
	for _, src := range [][]byte{blocksRecording(), noise} {
		for _, n := range []int{0, 1, store.ObjectBlock - 1, store.ObjectBlock, store.ObjectBlock + 1, len(src)} {
			if raw, err := store.DecodeObject(store.EncodeObject(src[:n])); err != nil || !bytes.Equal(raw, src[:n]) {
				t.Fatalf("%d bytes: round trip failed: %v", n, err)
			}
		}
	}
}

// TestObjectRefusesDamage holds the object decoder to refusing each kind
// of damage.
func TestObjectRefusesDamage(t *testing.T) {
	for _, bad := range badObjects() {
		if raw, err := store.DecodeObject(bad.data); err == nil {
			t.Errorf("%s: decoded to %d bytes", bad.name, len(raw))
		}
	}
}

// FuzzObject feeds arbitrary bytes to the object decoder. It must never
// panic, and what it accepts holds exactly the raw length its header
// declares.
func FuzzObject(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DPRO"))
	f.Add(store.EncodeObject(nil))
	f.Add(store.EncodeObject([]byte("one short block")))
	f.Add(store.EncodeObject(encode(testRecording(1, 3))))
	f.Add(store.EncodeObject(blocksRecording()))
	for _, bad := range badObjects() {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if raw, err := store.DecodeObject(data); err == nil && uint64(len(raw)) != binary.LittleEndian.Uint64(data[9:]) {
			t.Fatalf("decoded %d bytes, the header declares %d", len(raw), binary.LittleEndian.Uint64(data[9:]))
		}
	})
}

// ---- the retired chunk manifest ----

// inlineFlag marks an inline entry in its kind varint (legacy.go).
const inlineFlag = 0x100

// rawEntry is one hand-laid manifest entry: a ref when digest is set.
type rawEntry struct {
	n, kind uint64
	digest  string
}

// rawManifest lays out a DPMF file field by field, with a correct CRC, so
// tests can write what no writer would: an old version, entries and a tail
// that disagree. tail is the inline tail as stored, flag byte first.
func rawManifest(version, total uint64, entries []rawEntry, tail []byte) []byte {
	buf := []byte("DPMF")
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, total)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, e.n)
		buf = binary.AppendUvarint(buf, e.kind)
		if e.digest != "" {
			raw, _ := hex.DecodeString(strings.TrimPrefix(e.digest, "sha256-"))
			buf = append(buf, raw...)
		}
	}
	buf = append(buf, tail...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// layManifest lays out a manifest as version 2 wrote it: its inline tail
// DEFLATE when that shrinks it.
func layManifest(m *store.Manifest) []byte {
	var entries []rawEntry
	for _, c := range m.Chunks {
		e := rawEntry{n: uint64(c.Len), kind: uint64(c.Kind), digest: c.Digest}
		if c.Digest == "" {
			e.kind |= inlineFlag
		}
		entries = append(entries, e)
	}
	var tail []byte
	if len(m.Inline) > 0 {
		if tail = dplog.Deflate([]byte{1}, m.Inline); tail == nil {
			tail = append([]byte{0}, m.Inline...)
		}
	}
	return rawManifest(2, uint64(m.Total), entries, tail)
}

// deflated is a DEFLATE tail (flag byte 1) holding raw, which must shrink.
func deflated(raw []byte) []byte {
	return append([]byte{1}, dplog.Deflate(nil, raw)...)
}

// badInlineManifests are well-formed in every way but what they say about
// their inline spans; DecodeManifest must refuse each.
func badInlineManifests() []struct {
	name string
	data []byte
} {
	ref := store.Digest([]byte("x"))
	ten := []byte("\x000123456789") // a raw tail of ten bytes
	inline := func(n uint64) []rawEntry { return []rawEntry{{n: n, kind: inlineFlag}} }
	return []struct {
		name string
		data []byte
	}{
		{"inline lengths sum past the tail", rawManifest(2, 42, []rawEntry{{n: 6, kind: inlineFlag}, {n: 30, kind: 1, digest: ref}, {n: 6, kind: 3 | inlineFlag}}, ten)},
		{"inline lengths sum short of it", rawManifest(2, 38, []rawEntry{{n: 4, kind: inlineFlag}, {n: 30, kind: 1, digest: ref}, {n: 4, kind: 3 | inlineFlag}}, ten)},
		{"inline entries and no tail", rawManifest(2, 10, inline(10), nil)},
		{"a tail and no inline entries", rawManifest(2, 30, []rawEntry{{n: 30, kind: 1, digest: ref}}, ten)},
		{"an inline span at the bound", rawManifest(2, store.InlineSpanMax, inline(store.InlineSpanMax), make([]byte, 1+store.InlineSpanMax))},
		{"a tail that inflates past its entries", rawManifest(2, 10, inline(10), deflated(make([]byte, 8<<20)))},
		{"a deflated tail cut short", rawManifest(2, 200, inline(200), deflated(make([]byte, 100)))},
		{"an unknown tail encoding", rawManifest(2, 10, inline(10), []byte("\x070123456789"))},
		{"an inline entry in version 1", rawManifest(1, 10, inline(10), ten)},
	}
}

// FuzzManifest feeds arbitrary bytes to the retired manifest's decoder,
// which the conversion of a chunk-layout store runs over files on disk. It
// must never panic, and anything it accepts must survive a semantic round
// trip: decode → lay out again → decode yields the same manifest. (Byte
// identity is not required — non-canonical varints decode fine but are laid
// out canonically, and a version-1 manifest is laid out as version 2.)
func FuzzManifest(f *testing.F) {
	f.Add(layManifest(&store.Manifest{Total: 60, Chunks: []store.ManifestChunk{
		{Digest: store.Digest([]byte("x")), Len: 25, Kind: 2},
		{Digest: store.Digest([]byte("y")), Len: 35, Kind: 4},
	}}))
	f.Add([]byte{})
	f.Add([]byte("DPMF"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.dpmf"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(layManifest(&store.Manifest{Total: 72, Inline: []byte("header bytesindex"), Chunks: []store.ManifestChunk{
		{Len: 12, Kind: 0},
		{Digest: store.Digest([]byte("x")), Len: 25, Kind: 2},
		{Digest: store.Digest([]byte("y")), Len: 30, Kind: 4},
		{Len: 5, Kind: 5},
	}}))
	for _, bad := range badInlineManifests() {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := store.DecodeManifest(data)
		if err != nil {
			return
		}
		got2, err := store.DecodeManifest(layManifest(got))
		if err != nil {
			t.Fatalf("laid-out manifest failed to decode: %v", err)
		}
		// A raw tail aliases the input and an empty one may be nil or
		// empty; only the bytes matter.
		if !bytes.Equal(got.Inline, got2.Inline) {
			t.Fatalf("round trip changed the inline bytes: %x vs %x", got.Inline, got2.Inline)
		}
		got.Inline, got2.Inline = nil, nil
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("round trip changed manifest: %+v vs %+v", got, got2)
		}
	})
}
