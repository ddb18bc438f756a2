package store

// The chunk layout this store used before a recording became one object:
// each recording a DPMF manifest under manifests/, naming content-addressed
// chunk files beside the objects and carrying its small spans inline. Open
// converts such a store (migrate), and nothing else reads it. The layout:
//
//	"DPMF"                        magic (4 bytes)
//	u version                     1 or 2
//	u total                       reassembled recording size in bytes
//	u count                       number of spans
//	count × { u len, u kind, 32-byte sha256 }     a ref entry, or
//	        { u len, u kind|0x100 }               an inline entry (version 2)
//	[ 1 flag byte + payload ]     the inline tail: present exactly when
//	                              there are inline entries; 0 = raw,
//	                              1 = DEFLATE; it must decode to exactly
//	                              the sum of the inline lengths
//	u32 LE CRC-32 (IEEE)          over everything before it
//
// A chunk file is the same flag byte and payload, named by the digest of
// its raw span.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"doubleplay/internal/dplog"
)

const (
	manifestMagic     = "DPMF"
	inlineFlag        = 1 << 8  // marks an inline entry in its kind varint
	inlineSpanMax     = 256     // version 2 carried every shorter span inline
	maxManifestChunks = 1 << 22 // bounds against hostile input
	maxChunkLen       = 1 << 30
)

var errBadManifest = errors.New("store: bad manifest")

// manifestChunk is one span of a recording: Len bytes, either in the chunk
// file named Digest or, when Digest is empty, inline in the manifest.
type manifestChunk struct {
	Digest string
	Len    int64
	Kind   uint8
}

// manifest describes one recording as an ordered span list. Inline holds
// the raw bytes of the inline spans, concatenated in entry order.
type manifest struct {
	Total  int64
	Chunks []manifestChunk
	Inline []byte
}

// decodeManifest parses and validates a DPMF manifest of either version:
// magic, version, bounds, length consistency, the inline tail held to
// exactly the bytes its entries declare, and the CRC. It never panics on
// corrupt input (FuzzManifest).
func decodeManifest(data []byte) (*manifest, error) {
	if len(data) < len(manifestMagic)+4 || string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", errBadManifest)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", errBadManifest)
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
	if truncated || ver != 1 && ver != 2 || count > maxManifestChunks {
		return nil, fmt.Errorf("%w: version %d, %d chunks, truncated %v", errBadManifest, ver, count, truncated)
	}
	m := &manifest{Total: int64(total)}
	var sum, inline int64
	for i := uint64(0); i < count; i++ {
		n, kind := u(), u()
		isInline := ver == 2 && kind&inlineFlag != 0
		if isInline {
			kind &^= inlineFlag
		}
		switch {
		case truncated || n == 0 || n > maxChunkLen || kind > 255 || isInline && n >= inlineSpanMax:
			return nil, fmt.Errorf("%w: chunk %d of %d bytes, kind %d", errBadManifest, i, n, kind)
		case isInline:
			inline += int64(n)
		case len(b) < sha256.Size:
			return nil, fmt.Errorf("%w: truncated digest", errBadManifest)
		}
		c := manifestChunk{Len: int64(n), Kind: uint8(kind)}
		if !isInline {
			c.Digest, b = "sha256-"+hex.EncodeToString(b[:sha256.Size]), b[sha256.Size:]
		}
		m.Chunks = append(m.Chunks, c)
		if sum += int64(n); sum > int64(total) {
			return nil, fmt.Errorf("%w: chunk lengths exceed total %d", errBadManifest, total)
		}
	}
	switch {
	case sum != int64(total):
		return nil, fmt.Errorf("%w: chunk lengths sum to %d, total declares %d", errBadManifest, sum, total)
	case inline == 0 && len(b) != 0:
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadManifest, len(b))
	case inline > 0:
		var err error
		if m.Inline, err = decodeChunk(b, inline); err != nil {
			return nil, fmt.Errorf("%w: inline tail: %v", errBadManifest, err)
		}
	}
	return m, nil
}

// decodeChunk recovers exactly the n raw bytes a chunk file (or an inline
// tail) holds behind its flag byte, 0 = raw or 1 = DEFLATE.
func decodeChunk(data []byte, n int64) ([]byte, error) {
	switch {
	case len(data) > 0 && data[0] == 0 && int64(len(data)-1) == n:
		return data[1:], nil
	case len(data) > 0 && data[0] == 1:
		return dplog.Inflate(data[1:], n)
	}
	return nil, fmt.Errorf("store: chunk file of %d bytes does not hold %d", len(data), n)
}

// reassemble rebuilds the recording the manifest at path describes.
func (s *Store) reassemble(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	raw, inline := make([]byte, 0, m.Total), m.Inline
	for _, c := range m.Chunks {
		if c.Digest == "" {
			raw, inline = append(raw, inline[:c.Len]...), inline[c.Len:]
			continue
		}
		span, err := os.ReadFile(s.objectPath(c.Digest))
		if err == nil {
			span, err = decodeChunk(span, c.Len)
		}
		if err != nil {
			return nil, err
		}
		raw = append(raw, span...)
	}
	return raw, nil
}

// migrate converts a store in the chunk layout, which is one with a
// manifests/ directory, into objects. Every step can be repeated, so the
// next Open finishes a conversion a crash cut short:
//
//  1. each manifest's recording is reassembled and put as an object. One
//     already stored is skipped; one that does not reassemble to an intact
//     log under its digest is damage, left for fsck to name through the
//     refs that now dangle;
//  2. every chunk file goes: a file among the objects that does not begin
//     with the object magic;
//  3. manifests/ goes last, so that until then the next Open converts again.
func (s *Store) migrate() error {
	dir := filepath.Join(s.root, "manifests")
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	mans, err := s.shardFiles("manifests")
	if err != nil {
		return err
	}
	for _, m := range mans {
		if !validDigest(m.name) || s.HasRecording(m.name) {
			continue
		}
		raw, err := s.reassemble(m.path)
		var perr *fs.PathError
		if errors.As(err, &perr) && !errors.Is(err, fs.ErrNotExist) {
			return err // the disk failed, not the store: keep it all for a retry
		}
		if err == nil && Digest(raw) == m.name && verify(raw) == nil {
			if err := s.putObject(m.name, raw); err != nil {
				return err
			}
		}
	}
	files, err := s.shardFiles(objects)
	if err != nil {
		return err
	}
	for _, f := range files {
		if strings.HasPrefix(f.name, tempPrefix) || isObject(f.path) {
			continue
		}
		if err := s.fs.Remove(f.path); err != nil {
			return err
		}
	}
	return s.fs.RemoveAll(dir)
}

// isObject reports whether the file at path begins with the object magic,
// as no chunk file does: its first byte is its encoding flag, 0 or 1.
func isObject(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	magic := make([]byte, len(objectMagic))
	_, err = f.ReadAt(magic, 0)
	return err == nil && string(magic) == objectMagic
}
