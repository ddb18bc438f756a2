package upgrade

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/store"
)

func flip(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0x40
	return out
}

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
func layManifest(m *manifest) []byte {
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
// their inline spans; decodeManifest must refuse each.
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
		{"an inline span at the bound", rawManifest(2, inlineSpanMax, inline(inlineSpanMax), make([]byte, 1+inlineSpanMax))},
		{"a tail that inflates past its entries", rawManifest(2, 10, inline(10), deflated(make([]byte, 8<<20)))},
		{"a deflated tail cut short", rawManifest(2, 200, inline(200), deflated(make([]byte, 100)))},
		{"an unknown tail encoding", rawManifest(2, 10, inline(10), []byte("\x070123456789"))},
		{"an inline entry in version 1", rawManifest(1, 10, inline(10), ten)},
	}
}

// TestManifestRoundTrip lays out manifests of both entry forms, decodes
// them back, and holds corruptions to a clean refusal.
func TestManifestRoundTrip(t *testing.T) {
	ra, rb := store.Digest([]byte("a")), store.Digest([]byte("b"))
	want := &manifest{Total: 130, Inline: []byte("ten bytes!twenty bytes of span")}
	want.Chunks = []manifestChunk{
		{Len: 10, Kind: 0}, // inline: no digest
		{Digest: ra, Len: 30, Kind: 1},
		{Digest: rb, Len: 50, Kind: 2},
		{Len: 20, Kind: 255},
		{Digest: ra, Len: 20, Kind: 3},
	}
	enc := layManifest(want)
	got, err := decodeManifest(enc)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
	}
	// An inline tail stored as DEFLATE inflates back.
	big := &manifest{Total: 200 * 64}
	for i := 0; i < 64; i++ {
		big.Chunks = append(big.Chunks, manifestChunk{Len: 200, Kind: 1})
		big.Inline = append(big.Inline, bytes.Repeat([]byte{byte(i)}, 200)...)
	}
	if got, err := decodeManifest(layManifest(big)); err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("deflated tail round trip: %v", err)
	}
	// Corruptions must fail cleanly, never panic.
	for _, mut := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic", append([]byte("XXXX"), enc[4:]...)},
		{"truncated", enc[:len(enc)-6]},
		{"bitflip", flip(enc, len(enc)/2)},
		{"inline byte", flip(enc, len(enc)-8)},
		{"crc", flip(enc, len(enc)-1)},
	} {
		if _, err := decodeManifest(mut.data); err == nil {
			t.Fatalf("%s: corrupt manifest decoded", mut.name)
		}
	}
}

// TestManifestV1StillDecodes reads a manifest the parent of the inline
// form wrote (version 1: ref entries only).
func TestManifestV1StillDecodes(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.dpmf"))
	if err != nil || v1[4] != 1 {
		t.Fatalf("testdata/v1.dpmf is not a version-1 manifest: %v", err)
	}
	want := &manifest{Total: 100, Chunks: []manifestChunk{
		{Digest: store.Digest([]byte("a")), Len: 30, Kind: 1},
		{Digest: store.Digest([]byte("b")), Len: 50, Kind: 2},
		{Digest: store.Digest([]byte("a")), Len: 20, Kind: 3},
	}}
	if got, err := decodeManifest(v1); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 manifest: %+v, %v", got, err)
	}
}

// TestManifestRefusesBadInline holds the decoder to the inline form's
// rules, and to refusing a tail that expands past what its entries declare
// without ever holding the expansion.
func TestManifestRefusesBadInline(t *testing.T) {
	for _, bad := range badInlineManifests() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := decodeManifest(bad.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %+v", bad.name, m)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", bad.name, got)
		}
	}
}

// FuzzManifest feeds arbitrary bytes to the manifest decoder, which `store
// upgrade` runs over files an operator points it at. It must never panic,
// and anything it accepts must survive a semantic round trip: decode → lay
// out again → decode yields the same manifest. (Byte identity is not
// required — non-canonical varints decode fine but are laid out
// canonically, and a version-1 manifest is laid out as version 2.)
func FuzzManifest(f *testing.F) {
	f.Add(layManifest(&manifest{Total: 60, Chunks: []manifestChunk{
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
	f.Add(layManifest(&manifest{Total: 72, Inline: []byte("header bytesindex"), Chunks: []manifestChunk{
		{Len: 12, Kind: 0},
		{Digest: store.Digest([]byte("x")), Len: 25, Kind: 2},
		{Digest: store.Digest([]byte("y")), Len: 30, Kind: 4},
		{Len: 5, Kind: 5},
	}}))
	for _, bad := range badInlineManifests() {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeManifest(data)
		if err != nil {
			return
		}
		got2, err := decodeManifest(layManifest(got))
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
