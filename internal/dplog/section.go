package dplog

// The v6 sectioned layer: each epoch is stored as one framed,
// self-contained, optionally DEFLATE-compressed section, followed by an
// offset index and a fixed-size footer that locates it. The framing is
// deliberately minimal — a marker byte, five varints, payload — in the
// compact style of mpack-like binary codecs: every field is either
// fixed-width or length-prefixed, so a decoder never scans for
// delimiters. docs/FORMAT.md is the normative byte-level spec.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

const (
	// sectionMarker opens every section frame.
	sectionMarker = 'S'
	// indexMagic opens the section index; its first byte ('D') is what
	// tells a sequential decoder the sections have ended.
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

// readN reads exactly n bytes, growing the buffer only as the stream
// actually delivers data, so a hostile length prefix cannot force a huge
// up-front allocation.
func readN(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	if n < 1<<16 {
		buf.Grow(int(n))
	}
	if _, err := io.CopyN(&buf, r, n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// One DEFLATE codec serves section payloads here and chunk files in
// internal/store. A compressor's state is over a megabyte and a
// decompressor's tens of kilobytes, so both are pooled and Reset per call
// rather than built per call; compress/flate defines a Reset codec as
// equivalent to a new one, so the bytes are the same either way.
var (
	deflaters = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(nil, flate.DefaultCompression)
		if err != nil {
			panic(err) // only an invalid level fails
		}
		return zw
	}}
	inflaters = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}
)

// Deflate compresses b at the default level, returning nil when
// compression would not shrink it.
func Deflate(b []byte) []byte {
	zw := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(zw)
	var buf bytes.Buffer
	zw.Reset(&buf)
	if _, err := zw.Write(b); err != nil {
		return nil
	}
	if err := zw.Close(); err != nil {
		return nil
	}
	if buf.Len() >= len(b) {
		return nil
	}
	return buf.Bytes()
}

// Inflate decompresses a DEFLATE stream that may legitimately expand to
// at most max bytes, and fails — without reading further — on one that
// expands to more.
func Inflate(b []byte, max int64) ([]byte, error) {
	zr := inflaters.Get().(io.ReadCloser)
	defer inflaters.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(b), nil); err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	out, err := io.ReadAll(io.LimitReader(zr, max+1))
	if err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	if int64(len(out)) > max {
		return nil, fmt.Errorf("inflate: stream expands past %d bytes", max)
	}
	return out, nil
}

// section writes ep as one section frame starting at file offset off and
// returns its index entry.
func (e *encoder) section(ep *EpochLog, off int64, compress bool) SectionInfo {
	body := encodeEpochBody(ep)
	stored := body
	var flags uint64
	if ep.Certified {
		flags |= SectionCertified
	}
	if compress {
		if z := Deflate(body); z != nil {
			stored = z
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
	e.w.Write(stored)
	return SectionInfo{
		Epoch:  ep.Index,
		Offset: off,
		Stored: int64(len(stored)),
		Raw:    int64(len(body)),
		Flags:  flags,
		CRC:    crc,
	}
}

// copySection writes a previously encoded section frame verbatim at file
// offset off, returning the entry for the new index.
func (e *encoder) copySection(frame []byte, info SectionInfo, off int64) SectionInfo {
	e.w.Write(frame)
	info.Offset = off
	return info
}

// encodeIndex renders the section index (magic, count, entries).
func encodeIndex(entries []SectionInfo) []byte {
	var buf bytes.Buffer
	ie := newEncoder(&buf)
	buf.WriteString(indexMagic)
	ie.u(uint64(len(entries)))
	for _, s := range entries {
		ie.u(uint64(s.Epoch))
		ie.u(uint64(s.Offset))
		ie.u(uint64(s.Stored))
		ie.u(uint64(s.Raw))
		ie.u(s.Flags)
		ie.u(uint64(s.CRC))
	}
	return buf.Bytes()
}

// indexAndFooter writes the section index (which starts at file offset
// indexOff) and the fixed footer locating it.
func (e *encoder) indexAndFooter(indexOff int64, entries []SectionInfo) {
	idx := encodeIndex(entries)
	e.w.Write(idx)
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint32(foot[8:12], crc32.ChecksumIEEE(idx))
	copy(foot[12:16], trailerMagic)
	e.w.Write(foot[:])
}

// sectionFrame decodes one section frame (the marker byte already
// consumed) whose frame starts at file offset off, returning its index
// entry and decoded epoch.
func (d *decoder) sectionFrame(off int64) (SectionInfo, *EpochLog, error) {
	info, payload, err := d.sectionHead(off)
	if err != nil {
		return SectionInfo{}, nil, err
	}
	ep, err := decodeSectionPayload(info, payload)
	if err != nil {
		return SectionInfo{}, nil, err
	}
	return info, ep, nil
}

// sectionHead decodes a section frame's fields and stored payload (the
// marker byte already consumed) and validates the payload CRC, without
// decompressing or decoding the epoch body.
func (d *decoder) sectionHead(off int64) (SectionInfo, []byte, error) {
	epochID, err := d.u()
	if err != nil {
		return SectionInfo{}, nil, err
	}
	flags, err := d.u()
	if err != nil {
		return SectionInfo{}, nil, err
	}
	rawLen, err := d.u()
	if err != nil {
		return SectionInfo{}, nil, err
	}
	storedLen, err := d.u()
	if err != nil {
		return SectionInfo{}, nil, err
	}
	crc, err := d.u()
	if err != nil {
		return SectionInfo{}, nil, err
	}
	if epochID > maxEpochs {
		return SectionInfo{}, nil, fmt.Errorf("epoch id %d too large", epochID)
	}
	if rawLen > maxSectionLen || storedLen > maxSectionLen {
		return SectionInfo{}, nil, fmt.Errorf("section length %d/%d too large", storedLen, rawLen)
	}
	if crc > 1<<32-1 {
		return SectionInfo{}, nil, fmt.Errorf("section CRC %#x does not fit 32 bits", crc)
	}
	if flags&SectionCompressed == 0 && rawLen != storedLen {
		return SectionInfo{}, nil, fmt.Errorf("raw section with stored length %d != raw length %d", storedLen, rawLen)
	}
	payload, err := readN(d.r, int64(storedLen))
	if err != nil {
		return SectionInfo{}, nil, err
	}
	if got := crc32.ChecksumIEEE(payload); got != uint32(crc) {
		return SectionInfo{}, nil, fmt.Errorf("section payload CRC %#08x, frame declared %#08x", got, uint32(crc))
	}
	return SectionInfo{
		Epoch:  int(epochID),
		Offset: off,
		Stored: int64(storedLen),
		Raw:    int64(rawLen),
		Flags:  flags,
		CRC:    uint32(crc),
	}, payload, nil
}

// decodeSectionPayload turns a CRC-validated stored payload into its
// epoch, inflating if the section is compressed and cross-checking the
// frame fields against the body.
func decodeSectionPayload(info SectionInfo, payload []byte) (*EpochLog, error) {
	body := payload
	if info.Compressed() {
		var err error
		if body, err = Inflate(payload, info.Raw); err != nil {
			return nil, err
		}
		if int64(len(body)) != info.Raw {
			return nil, fmt.Errorf("inflate: raw length %d, frame declared %d", len(body), info.Raw)
		}
	}
	sub := &decoder{r: bufio.NewReader(bytes.NewReader(body))}
	ep, err := sub.epoch(formatVersion)
	if err != nil {
		return nil, err
	}
	if _, err := sub.r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after epoch body")
	}
	if ep.Index != info.Epoch {
		return nil, fmt.Errorf("section carries epoch %d, frame declared %d", ep.Index, info.Epoch)
	}
	if ep.Certified != info.Certified() {
		return nil, fmt.Errorf("section certified flag disagrees with epoch body")
	}
	return ep, nil
}

// indexEntries decodes the index body (magic already consumed).
func (d *decoder) indexEntries() ([]SectionInfo, error) {
	count, err := d.u()
	if err != nil {
		return nil, err
	}
	if count > maxEpochs {
		return nil, fmt.Errorf("index entry count %d too large", count)
	}
	entries := make([]SectionInfo, 0, capHint(count))
	for i := uint64(0); i < count; i++ {
		epoch, err := d.u()
		if err != nil {
			return nil, err
		}
		off, err := d.u()
		if err != nil {
			return nil, err
		}
		stored, err := d.u()
		if err != nil {
			return nil, err
		}
		raw, err := d.u()
		if err != nil {
			return nil, err
		}
		flags, err := d.u()
		if err != nil {
			return nil, err
		}
		crc, err := d.u()
		if err != nil {
			return nil, err
		}
		entries = append(entries, SectionInfo{
			Epoch:  int(epoch),
			Offset: int64(off),
			Stored: int64(stored),
			Raw:    int64(raw),
			Flags:  flags,
			CRC:    uint32(crc),
		})
	}
	return entries, nil
}

// sectioned decodes the v6 body sequentially: sections until the index
// magic, then the index (cross-checked against the sections streamed
// past) and the footer.
func (d *decoder) sectioned(rec *Recording, nsec int, pos func() int64) error {
	var got []SectionInfo
	var indexOff int64
	for {
		off := pos()
		marker, err := d.r.ReadByte()
		if err != nil {
			return fmt.Errorf("dplog: truncated before section index: %w", err)
		}
		if marker == sectionMarker {
			info, ep, err := d.sectionFrame(off)
			if err != nil {
				return fmt.Errorf("dplog: section %d: %w", len(got), err)
			}
			rec.Epochs = append(rec.Epochs, ep)
			got = append(got, info)
			continue
		}
		rest := make([]byte, len(indexMagic)-1)
		if _, err := io.ReadFull(d.r, rest); err != nil || string(marker)+string(rest) != indexMagic {
			return fmt.Errorf("dplog: expected section or index at offset %d", off)
		}
		indexOff = off
		break
	}
	if len(got) != nsec {
		return fmt.Errorf("dplog: header declares %d sections, stream has %d", nsec, len(got))
	}
	entries, err := d.indexEntries()
	if err != nil {
		return fmt.Errorf("dplog: section index: %w", err)
	}
	if len(entries) != len(got) {
		return fmt.Errorf("dplog: index has %d entries for %d sections", len(entries), len(got))
	}
	for i := range entries {
		if entries[i] != got[i] {
			return fmt.Errorf("dplog: index entry %d disagrees with its section", i)
		}
	}
	var foot [footerLen]byte
	if _, err := io.ReadFull(d.r, foot[:]); err != nil {
		return fmt.Errorf("dplog: truncated footer: %w", err)
	}
	if string(foot[12:16]) != trailerMagic {
		return fmt.Errorf("dplog: bad trailer magic")
	}
	if off := int64(binary.LittleEndian.Uint64(foot[0:8])); off != indexOff {
		return fmt.Errorf("dplog: footer index offset %d, index found at %d", off, indexOff)
	}
	return nil
}
