package dplog

// The v6 sectioned layer: each epoch is stored as one framed,
// self-contained, optionally DEFLATE-compressed section, followed by an
// offset index and a fixed-size footer that locates it. The framing is
// deliberately minimal — a marker byte, five varints, payload — in the
// compact style of mpack-like binary codecs: every field is either
// fixed-width or length-prefixed, so a decoder never scans for
// delimiters. docs/FORMAT.md is the normative byte-level spec.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"sync"
)

const (
	// sectionMarker opens every section frame.
	sectionMarker = 'S'
	// indexMagic opens the section index.
	indexMagic = "DPIX"
	// trailerMagic closes the file.
	trailerMagic = "DPLX"

	// footerLen is the fixed footer size: a little-endian uint64 index
	// offset, a little-endian uint32 CRC-32 (IEEE) of the index bytes,
	// and the 4-byte trailer magic.
	footerLen = 16

	// maxSectionLen bounds stored and raw payload sizes against hostile
	// frames.
	maxSectionLen = 1 << 30
)

// Section flags, stored in each section frame and echoed in the index.
const (
	// SectionCompressed marks a payload stored as a raw DEFLATE stream.
	SectionCompressed = 1 << 0
	// SectionCertified marks an epoch that was committed without
	// verification (mirrors the epoch's certified flag, so tooling can
	// tell without decompressing).
	SectionCertified = 1 << 1
)

// SectionInfo is one entry of the section index: where an epoch's
// section lives and how to validate it.
type SectionInfo struct {
	Epoch  int    // epoch id the section carries
	Offset int64  // file offset of the section's 'S' marker byte
	Stored int64  // payload length as stored in the file
	Raw    int64  // payload length after decompression
	Flags  uint64 // SectionCompressed | SectionCertified
	CRC    uint32 // CRC-32 (IEEE) of the stored payload bytes
}

// Compressed reports whether the section payload is DEFLATE-compressed.
func (s SectionInfo) Compressed() bool { return s.Flags&SectionCompressed != 0 }

// Certified reports whether the section's epoch was certified.
func (s SectionInfo) Certified() bool { return s.Flags&SectionCertified != 0 }

// One DEFLATE codec serves section payloads here and recording-object
// blocks in internal/store: compress/flate's compressor and the decoder in
// inflate.go. A compressor's state is over a megabyte, so it is pooled and
// Reset per call rather than built per call; compress/flate defines a Reset
// compressor as equivalent to a new one, so the bytes are the same either way.
var (
	deflaters = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(nil, flate.DefaultCompression)
		if err != nil {
			panic(err) // only an invalid level fails
		}
		return zw
	}}
)

// maxDeflateRatio is DEFLATE's expansion limit: its longest match copies
// 258 bytes and costs at least two bits.
const maxDeflateRatio = 1032

// Deflate appends b's DEFLATE stream at the default level to dst and
// returns the extended slice, or nil when compression would not shrink b.
func Deflate(dst, b []byte) []byte {
	zw := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(zw)
	buf := bytes.NewBuffer(dst)
	zw.Reset(buf)
	if _, err := zw.Write(b); err != nil {
		return nil
	}
	if err := zw.Close(); err != nil {
		return nil
	}
	if buf.Len()-len(dst) >= len(b) {
		return nil
	}
	return buf.Bytes()
}

// Inflate decompresses a DEFLATE stream whose raw length the caller
// already knows (a section's Raw, an object block's raw size) into a new
// buffer of exactly that size; inflater.inflate has the rules.
func Inflate(b []byte, n int64) ([]byte, error) {
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	return z.inflate(nil, b, n)
}

// section appends ep as one section frame and returns its index entry.
func (e *encoder) section(ep *EpochLog, compress bool) SectionInfo {
	e.body = encodeEpochBody(e.body[:0], ep)
	body, stored, off := e.body, e.body, int64(len(e.b))
	var flags uint64
	if ep.Certified {
		flags |= SectionCertified
	}
	if compress {
		if z := Deflate(e.z[:0], body); z != nil {
			stored, e.z = z, z
			flags |= SectionCompressed
		}
	}
	crc := crc32.ChecksumIEEE(stored)
	e.byte(sectionMarker)
	e.u(uint64(ep.Index))
	e.u(flags)
	e.u(uint64(len(body)))
	e.u(uint64(len(stored)))
	e.u(uint64(crc))
	e.b = append(e.b, stored...)
	return SectionInfo{
		Epoch:  ep.Index,
		Offset: off,
		Stored: int64(len(stored)),
		Raw:    int64(len(body)),
		Flags:  flags,
		CRC:    crc,
	}
}

// encodeIndex renders the section index (magic, count, entries).
func encodeIndex(entries []SectionInfo) []byte {
	ie := encoder{b: []byte(indexMagic)}
	ie.u(uint64(len(entries)))
	for _, s := range entries {
		ie.u(uint64(s.Epoch))
		ie.u(uint64(s.Offset))
		ie.u(uint64(s.Stored))
		ie.u(uint64(s.Raw))
		ie.u(s.Flags)
		ie.u(uint64(s.CRC))
	}
	return ie.b
}

// indexAndFooter appends the section index (which starts at file offset
// indexOff) and the fixed footer locating it.
func (e *encoder) indexAndFooter(indexOff int64, entries []SectionInfo) {
	idx := encodeIndex(entries)
	e.b = append(e.b, idx...)
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint32(foot[8:12], crc32.ChecksumIEEE(idx))
	copy(foot[12:16], trailerMagic)
	e.b = append(e.b, foot[:]...)
}
