package store_test

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

// inlineFlag marks an inline entry in its kind varint (the DPMF layout in
// manifest.go).
const inlineFlag = 0x100

// rawEntry is one hand-laid manifest entry: a ref when digest is set.
type rawEntry struct {
	n, kind uint64
	digest  string
}

// rawManifest lays out a DPMF file field by field, with a correct CRC, so
// tests can write what Encode never would: an old version, entries and
// tail that disagree. tail is the inline tail as stored, flag byte first.
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

// TestManifestRefusesBadInline holds the decoder to the inline form's
// rules, and to refusing a tail that expands past what its entries declare
// without ever holding the expansion.
func TestManifestRefusesBadInline(t *testing.T) {
	for _, bad := range badInlineManifests() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := store.DecodeManifest(bad.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %+v", bad.name, m)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", bad.name, got)
		}
	}
}

// FuzzManifest feeds arbitrary bytes to the DPMF decoder. The decoder
// must never panic, and anything it accepts must survive a semantic
// round trip: decode → encode → decode yields the same manifest. (Byte
// identity is not required — non-canonical varints decode fine but
// re-encode canonically, and a version-1 manifest re-encodes as
// version 2.)
func FuzzManifest(f *testing.F) {
	m := &store.Manifest{Total: 60}
	m.Chunks = []store.ManifestChunk{
		{Digest: store.Digest([]byte("x")), Len: 25, Kind: 2},
		{Digest: store.Digest([]byte("y")), Len: 35, Kind: 4},
	}
	f.Add(m.Encode())
	f.Add([]byte{})
	f.Add([]byte("DPMF"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.dpmf"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	mixed := &store.Manifest{Total: 72, Inline: []byte("header bytesindex")}
	mixed.Chunks = []store.ManifestChunk{
		{Len: 12, Kind: 0},
		{Digest: store.Digest([]byte("x")), Len: 25, Kind: 2},
		{Digest: store.Digest([]byte("y")), Len: 30, Kind: 4},
		{Len: 5, Kind: 5},
	}
	f.Add(mixed.Encode())
	for _, bad := range badInlineManifests() {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := store.DecodeManifest(data)
		if err != nil {
			return
		}
		got2, err := store.DecodeManifest(got.Encode())
		if err != nil {
			t.Fatalf("re-encoded manifest failed to decode: %v", err)
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
