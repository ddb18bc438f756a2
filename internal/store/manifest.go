package store

// The chunk manifest is the store's binary description of how to
// reassemble a recording from its spans. The codec follows the repo's
// dplog idiom — magic, varints, length-implicit offsets, CRC-32 tail — and
// is deliberately tiny: span offsets are cumulative, so each entry carries
// only its length and kind, and then says where its bytes are. A ref entry
// names a content-addressed chunk file by the digest of the raw span; an
// inline entry (a span under inlineSpanMax bytes) names nothing, because
// its bytes are in the manifest itself: all inline spans, concatenated in
// entry order, form one tail in the chunk-file encoding.
//
//	"DPMF"                        magic (4 bytes)
//	u version                     2 (1 is still read, never written)
//	u total                       reassembled recording size in bytes
//	u count                       number of spans
//	count × { u len, u kind, 32-byte sha256 }     a ref entry, or
//	        { u len, u kind|0x100 }               an inline entry
//	[ 1 flag byte + payload ]     the inline tail: present exactly when
//	                              there are inline entries; 0 = raw,
//	                              1 = DEFLATE; it must decode to exactly
//	                              the sum of the inline lengths
//	u32 LE CRC-32 (IEEE)          over everything before it
//
// Version 1 is the same layout without the inline form — a v1 entry list is
// a v2 list that happens to hold only refs, since no v1 kind reaches bit 8 —
// so one decoder reads both and refuses an inline entry under version 1.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"

	"doubleplay/internal/dplog"
)

const (
	manifestMagic   = "DPMF"
	manifestVersion = 2

	// inlineFlag marks an inline entry in its kind varint; kinds are one
	// byte, so the flag sits just above them.
	inlineFlag = 1 << 8

	// inlineSpanMax is the raw length from which a span gets a chunk file
	// of its own; a shorter one is carried in the manifest. A chunk file
	// costs a stat, an exclusive create and a rename (~0.6 ms on ext4,
	// against microseconds to append the same bytes to the manifest), and
	// it can only pay that back by being shared. On the benchmark's corpus
	// of 32 real-guest recordings, 65 % of the 2,260 spans are under 256
	// bytes — header, index, and every epoch-meta span, which carries the
	// seed-entangled boundary hashes and has never deduplicated once — they
	// hold 1.8 % of the bytes, and all the sharing among them saved 0.17 %
	// of the store (EXPERIMENTS.md, "What a put costs"). Like dplog's
	// minSubChunk, it is a property of the layout, not a setting.
	inlineSpanMax = 256

	// maxManifestChunks bounds the entry count against hostile input.
	maxManifestChunks = 1 << 22
	// maxChunkLen bounds a single chunk span.
	maxChunkLen = 1 << 30
)

// ErrBadManifest reports bytes that do not decode as a chunk manifest.
var ErrBadManifest = errors.New("store: bad manifest")

// ManifestChunk is one span of the recording: Len bytes, either stored
// under Digest (the address of the raw span bytes) or, when Digest is
// empty, carried inline in the manifest. Kind echoes dplog.ChunkKind for
// stats and fsck narration.
type ManifestChunk struct {
	Digest string
	Len    int64
	Kind   uint8
}

// Manifest describes one recording as an ordered span list. Offsets are
// implicit: span i starts at the sum of the lengths before it. Inline holds
// the raw bytes of the inline spans, concatenated in entry order.
type Manifest struct {
	Total  int64
	Chunks []ManifestChunk
	Inline []byte
}

// inlineSpans returns, for every entry, its bytes when it is inline and
// nil when it is a ref.
func (m *Manifest) inlineSpans() [][]byte {
	spans := make([][]byte, len(m.Chunks))
	rest := m.Inline
	for i, c := range m.Chunks {
		if c.Digest == "" {
			spans[i], rest = rest[:c.Len:c.Len], rest[c.Len:]
		}
	}
	return spans
}

// Encode renders the manifest in the DPMF binary layout.
func (m *Manifest) Encode() []byte {
	buf := make([]byte, 0, 64+len(m.Chunks)*(4+sha256.Size)+len(m.Inline))
	buf = append(buf, manifestMagic...)
	buf = binary.AppendUvarint(buf, manifestVersion)
	buf = binary.AppendUvarint(buf, uint64(m.Total))
	buf = binary.AppendUvarint(buf, uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		buf = binary.AppendUvarint(buf, uint64(c.Len))
		if c.Digest == "" {
			buf = binary.AppendUvarint(buf, uint64(c.Kind)|inlineFlag)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(c.Kind))
		buf, _ = hex.AppendDecode(buf, []byte(c.Digest[len("sha256-"):])) // a digest this package made
	}
	if len(m.Inline) > 0 {
		buf = append(buf, encodeChunk(m.Inline)...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeManifest parses and validates a DPMF manifest of either version:
// magic, version, bounds, digest shape, length consistency, the inline
// tail held to exactly the bytes its entries declare, and the CRC. It
// never panics on corrupt input (fuzzed).
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < len(manifestMagic)+4 || string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadManifest)
	}
	b := body[len(manifestMagic):]
	truncated := false
	u := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			truncated, b = true, nil
			return 0
		}
		b = b[n:]
		return v
	}
	ver, total, count := u(), u(), u()
	switch {
	case truncated:
		return nil, fmt.Errorf("%w: truncated", ErrBadManifest)
	case ver != 1 && ver != manifestVersion:
		return nil, fmt.Errorf("%w: version %d", ErrBadManifest, ver)
	case count > maxManifestChunks:
		return nil, fmt.Errorf("%w: %d chunks too many", ErrBadManifest, count)
	}
	m := &Manifest{Total: int64(total)}
	var sum, inline int64
	for i := uint64(0); i < count; i++ {
		n, kind := u(), u()
		isInline := ver >= 2 && kind&inlineFlag != 0
		if isInline {
			kind &^= inlineFlag
		}
		switch {
		case truncated:
			return nil, fmt.Errorf("%w: truncated", ErrBadManifest)
		case n == 0 || n > maxChunkLen:
			return nil, fmt.Errorf("%w: chunk length %d", ErrBadManifest, n)
		case kind > 255:
			return nil, fmt.Errorf("%w: chunk kind %d", ErrBadManifest, kind)
		case isInline && n >= inlineSpanMax:
			return nil, fmt.Errorf("%w: inline span of %d bytes", ErrBadManifest, n)
		}
		c := ManifestChunk{Len: int64(n), Kind: uint8(kind)}
		if isInline {
			inline += int64(n)
		} else {
			if len(b) < sha256.Size {
				return nil, fmt.Errorf("%w: truncated digest", ErrBadManifest)
			}
			c.Digest = "sha256-" + hex.EncodeToString(b[:sha256.Size])
			b = b[sha256.Size:]
		}
		m.Chunks = append(m.Chunks, c)
		sum += int64(n)
		if sum > int64(total) {
			return nil, fmt.Errorf("%w: chunk lengths exceed total %d", ErrBadManifest, total)
		}
	}
	if sum != int64(total) {
		return nil, fmt.Errorf("%w: chunk lengths sum to %d, total declares %d", ErrBadManifest, sum, total)
	}
	if inline > 0 {
		var err error
		if m.Inline, err = decodeChunk(b, inline); err != nil {
			return nil, fmt.Errorf("%w: inline tail: %v", ErrBadManifest, err)
		}
	} else if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, len(b))
	}
	return m, nil
}

// ---- chunk file encoding ----

// Chunk files — and a manifest's inline tail — carry a 1-byte at-rest
// encoding flag before the payload: 0 = raw, 1 = DEFLATE. The digest in a
// chunk's file name always addresses the raw bytes, so at-rest compression
// never affects identity.
const (
	chunkRaw     = 0
	chunkDeflate = 1
)

// encodeChunk renders a chunk file, compressing at rest when it shrinks.
func encodeChunk(raw []byte) []byte {
	buf := make([]byte, 1, 1+len(raw)) // room for either encoding
	if z := dplog.Deflate(buf, raw); z != nil {
		z[0] = chunkDeflate
		return z
	}
	return append(buf, raw...) // buf[0] is chunkRaw
}

// decodeChunk recovers the n raw bytes the manifest declares from their
// file encoding, and fails on any other number of them.
func decodeChunk(data []byte, n int64) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("store: empty chunk file")
	}
	switch data[0] {
	case chunkRaw:
		if int64(len(data)-1) != n {
			return nil, fmt.Errorf("store: chunk has %d bytes, manifest declares %d", len(data)-1, n)
		}
		return data[1:], nil
	case chunkDeflate:
		raw, err := dplog.Inflate(data[1:], n)
		if err != nil {
			return nil, fmt.Errorf("store: chunk: %w", err)
		}
		return raw, nil
	}
	return nil, fmt.Errorf("store: unknown chunk encoding %d", data[0])
}
