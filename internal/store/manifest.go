package store

// The chunk manifest is the store's binary description of how to
// reassemble a recording from content-addressed chunks. The codec
// follows the repo's dplog idiom — magic, varints, length-implicit
// offsets, CRC-32 tail — and is deliberately tiny: chunk offsets are
// cumulative, so each entry carries only its length, kind, and raw
// digest.
//
//	"DPMF"                        magic (4 bytes)
//	u version                     currently 1
//	u total                       reassembled recording size in bytes
//	u count                       number of chunks
//	count × { u len, u kind, 32-byte sha256 }
//	u32 LE CRC-32 (IEEE)          over everything before it

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"doubleplay/internal/dplog"
)

const (
	manifestMagic   = "DPMF"
	manifestVersion = 1

	// maxManifestChunks bounds the entry count against hostile input.
	maxManifestChunks = 1 << 22
	// maxChunkLen bounds a single chunk span.
	maxChunkLen = 1 << 30
)

// ErrBadManifest reports bytes that do not decode as a chunk manifest.
var ErrBadManifest = errors.New("store: bad manifest")

// ManifestChunk is one chunk reference: Len bytes of the recording,
// stored under Digest (the address of the raw span bytes). Kind echoes
// dplog.ChunkKind for stats and fsck narration.
type ManifestChunk struct {
	Digest string
	Len    int64
	Kind   uint8
}

// Manifest describes one recording as an ordered chunk list. Offsets are
// implicit: chunk i starts at the sum of the lengths before it.
type Manifest struct {
	Total  int64
	Chunks []ManifestChunk
}

// Encode renders the manifest in the DPMF binary layout.
func (m *Manifest) Encode() []byte {
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	var tmp [binary.MaxVarintLen64]byte
	u := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	u(manifestVersion)
	u(uint64(m.Total))
	u(uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		u(uint64(c.Len))
		u(uint64(c.Kind))
		raw, _ := hex.DecodeString(c.Digest[len("sha256-"):])
		buf.Write(raw)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes()
}

// DecodeManifest parses and validates a DPMF manifest: magic, version,
// bounds, digest shape, length consistency, and the CRC tail. It never
// panics on corrupt input (fuzzed).
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < len(manifestMagic)+4 || string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadManifest)
	}
	r := bytes.NewReader(body[len(manifestMagic):])
	u := func() (uint64, error) { return binary.ReadUvarint(r) }
	ver, err := u()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadManifest)
	}
	if ver != manifestVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadManifest, ver)
	}
	total, err := u()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadManifest)
	}
	count, err := u()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadManifest)
	}
	if count > maxManifestChunks {
		return nil, fmt.Errorf("%w: %d chunks too many", ErrBadManifest, count)
	}
	m := &Manifest{Total: int64(total)}
	var sum int64
	for i := uint64(0); i < count; i++ {
		n, err := u()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated", ErrBadManifest)
		}
		if n == 0 || n > maxChunkLen {
			return nil, fmt.Errorf("%w: chunk length %d", ErrBadManifest, n)
		}
		kind, err := u()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated", ErrBadManifest)
		}
		if kind > 255 {
			return nil, fmt.Errorf("%w: chunk kind %d", ErrBadManifest, kind)
		}
		var raw [32]byte
		if _, err := io.ReadFull(r, raw[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated digest", ErrBadManifest)
		}
		m.Chunks = append(m.Chunks, ManifestChunk{
			Digest: "sha256-" + hex.EncodeToString(raw[:]),
			Len:    int64(n),
			Kind:   uint8(kind),
		})
		sum += int64(n)
		if sum > int64(total) {
			return nil, fmt.Errorf("%w: chunk lengths exceed total %d", ErrBadManifest, total)
		}
	}
	if sum != int64(total) {
		return nil, fmt.Errorf("%w: chunk lengths sum to %d, total declares %d", ErrBadManifest, sum, total)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, r.Len())
	}
	return m, nil
}

// ---- chunk file encoding ----

// Chunk files carry a 1-byte at-rest encoding flag before the payload:
// 0 = raw, 1 = DEFLATE. The digest in the file name always addresses the
// raw bytes, so at-rest compression never affects identity.
const (
	chunkRaw     = 0
	chunkDeflate = 1
)

// encodeChunk renders a chunk file, compressing at rest when it shrinks.
func encodeChunk(raw []byte) []byte {
	if z := dplog.Deflate(raw); z != nil {
		return append([]byte{chunkDeflate}, z...)
	}
	return append([]byte{chunkRaw}, raw...)
}

// decodeChunk recovers a chunk's raw bytes from its file encoding.
func decodeChunk(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("store: empty chunk file")
	}
	switch data[0] {
	case chunkRaw:
		return data[1:], nil
	case chunkDeflate:
		raw, err := dplog.Inflate(data[1:], maxChunkLen)
		if err != nil {
			return nil, fmt.Errorf("store: chunk: %w", err)
		}
		return raw, nil
	}
	return nil, fmt.Errorf("store: unknown chunk encoding %d", data[0])
}
