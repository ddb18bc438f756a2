// Package upgrade converts a store in the retired chunk layout, which
// store.Open refuses, into a new root for `doubleplay store upgrade`. It
// only reads the old root, so a rerun into the same new root converges.
// The chunk layout kept each recording as a DPMF manifest under
// <root>/manifests/<aa>/<digest>, naming chunk files under <root>/chunks/
// and carrying its small spans inline:
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
package upgrade

import (
	"bytes"
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
	"doubleplay/internal/store"
)

// Store converts the store at oldRoot into newRoot and reports how many
// recordings it put and job files it wrote. Each manifest's recording is
// reassembled, checked against its digest and put through PutRecording,
// which verifies it; then the job files are copied with their modification
// times, so GC's age order holds. A recording that does not convert is
// named in the error, and so, through the new root's fsck, are the refs
// that now dangle.
func Store(oldRoot, newRoot string) (put, copied int, err error) {
	if _, err := os.Stat(filepath.Join(oldRoot, "manifests")); err != nil {
		return 0, 0, fmt.Errorf("upgrade: %s is not a store in the chunk layout: %w", oldRoot, err)
	}
	mans, err := filepath.Glob(filepath.Join(oldRoot, "manifests", "*", "sha256-*"))
	if err != nil {
		return 0, 0, err
	}
	st, err := store.Open(newRoot, nil)
	if err != nil {
		return 0, 0, err
	}
	var damage []string
	for _, path := range mans {
		digest := filepath.Base(path)
		if st.HasRecording(digest) {
			continue
		}
		raw, err := reassemble(oldRoot, path)
		if err == nil && store.Digest(raw) != digest {
			err = fmt.Errorf("reassembles to %s", store.Digest(raw))
		}
		if err == nil {
			_, err = st.PutRecording(raw)
		}
		if err != nil {
			damage = append(damage, fmt.Sprintf("recording %s not converted: %v", digest, err))
			continue
		}
		put++
	}
	// Job files go second, so that a ref lands only once the recording it
	// names is in the new root, damage aside.
	if copied, err = copyJobs(oldRoot, newRoot); err != nil {
		return put, copied, fmt.Errorf("upgrade: %w", err)
	}
	if len(damage) > 0 {
		if rep, err := st.Fsck(); err == nil {
			damage = append(damage, rep.Errors...)
		}
		return put, copied, fmt.Errorf("upgrade: %s", strings.Join(damage, "; "))
	}
	return put, copied, nil
}

// copyJobs copies <oldRoot>/jobs file for file, with modification times and
// without the temp files of cut-off writes, and counts the files it wrote.
// One already there with the same bytes and time is left alone.
func copyJobs(oldRoot, newRoot string) (int, error) {
	src, n := filepath.Join(oldRoot, "jobs"), 0
	err := filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		dst := filepath.Join(newRoot, "jobs", rel)
		switch {
		case de.IsDir():
			return os.MkdirAll(dst, 0o755)
		case !de.Type().IsRegular() || strings.HasPrefix(de.Name(), ".tmp-"):
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if have, err := os.Stat(dst); err == nil && have.ModTime().Equal(info.ModTime()) {
			if old, err := os.ReadFile(dst); err == nil && bytes.Equal(old, data) {
				return nil
			}
		}
		n++
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			return err
		}
		return os.Chtimes(dst, info.ModTime(), info.ModTime())
	})
	return n, err
}

// reassemble rebuilds the recording the manifest at path describes from the
// chunk files under root.
func reassemble(root, path string) ([]byte, error) {
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
		span, err := os.ReadFile(filepath.Join(root, "chunks", c.Digest[len("sha256-"):len("sha256-")+2], c.Digest))
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

const (
	manifestMagic     = "DPMF"
	inlineFlag        = 1 << 8  // marks an inline entry in its kind varint
	inlineSpanMax     = 256     // version 2 carried every shorter span inline
	maxManifestChunks = 1 << 22 // bounds against hostile input
	maxChunkLen       = 1 << 30
)

var errBadManifest = errors.New("upgrade: bad manifest")

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
		return dplog.Inflate(nil, data[1:], n)
	}
	return nil, fmt.Errorf("upgrade: chunk file of %d bytes does not hold %d", len(data), n)
}
