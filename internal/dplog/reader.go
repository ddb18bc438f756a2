package dplog

// Reader is the file-level decoder: it loads the fixed header and the
// trailing section index, then fetches and decodes individual epoch
// sections on demand. Decoding a whole file (Unmarshal) is the same thing
// over a buffer that holds all of it. Only the current format opens; a
// retired v4/v5 flat stream is refused with ErrBadVersion and goes
// through Upgrade first.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Reader is a seekable view of an encoded recording.
type Reader struct {
	src  io.ReaderAt
	mem  []byte // the whole file, when opened from memory: fetches are sub-slices
	size int64
	hdr  Header
	// bodyOff is the file offset of the first section: where the fixed
	// header ends, and where an index-recovery scan starts.
	bodyOff int64
	// idxOff is the file offset of the section index (the first byte of
	// the DPIX magic); zero for recovered files, where no intact index was
	// located.
	idxOff int64
	index  []SectionInfo
	byID   map[int]int // epoch id -> position in index
	// damage is why the footer or index was refused; non-nil exactly for
	// a recovered reader.
	damage error
}

// OpenReader opens an encoded recording of the given size for random
// access: it reads the header, footer, and section index; if the footer
// or index is unreadable or does not describe the file exactly (a
// truncated or corrupted log) it falls back to a forward recovery scan
// over intact sections and marks the reader Recovered.
//
// The returned Reader is safe for concurrent use as long as src's ReadAt
// is (bytes.Reader and os.File both qualify).
func OpenReader(src io.ReaderAt, size int64) (*Reader, error) {
	return open(&Reader{src: src, size: size})
}

// OpenReaderBytes opens an in-memory encoded recording for random access.
// The reader keeps b and reads sections straight out of it.
func OpenReaderBytes(b []byte) (*Reader, error) {
	return open(&Reader{mem: b, size: int64(len(b))})
}

func open(r *Reader) (*Reader, error) {
	// The header's length is known only once it is parsed: fetch a prefix,
	// and a wider one while the parse runs off its end.
	for n := int64(256); ; n *= 8 {
		b, err := r.fetch(0, min(n, r.size))
		if err != nil {
			return nil, err
		}
		c := cursor{b: b}
		r.hdr = c.header(formatVersion)
		if c.err == nil {
			r.bodyOff = int64(c.pos)
			break
		}
		if c.err != io.ErrUnexpectedEOF || n >= r.size {
			return nil, c.err
		}
	}
	if r.damage = r.loadIndex(); r.damage != nil {
		r.recoverScan()
	}
	return r, nil
}

// fetch returns file bytes [off, off+n), which the caller has checked to
// lie inside the file.
func (r *Reader) fetch(off, n int64) ([]byte, error) {
	if r.src == nil {
		return r.mem[off : off+n], nil
	}
	b := make([]byte, n)
	if m, err := r.src.ReadAt(b, off); m < len(b) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// loadIndex reads the footer and section index from the tail of the file
// and validates both, including that the index describes the file
// exactly: entries in file order, the first section starting where the
// header ends, each next one where the previous frame ends, the last one
// ending where the index starts (docs/FORMAT.md §4).
func (r *Reader) loadIndex() error {
	if r.size < r.bodyOff+footerLen {
		return errors.New("file too short for a footer")
	}
	foot, err := r.fetch(r.size-footerLen, footerLen)
	if err != nil {
		return err
	}
	if string(foot[12:16]) != trailerMagic {
		return errors.New("bad trailer magic")
	}
	idxOff := int64(binary.LittleEndian.Uint64(foot[0:8]))
	if idxOff < r.bodyOff || idxOff > r.size-footerLen {
		return fmt.Errorf("footer index offset %d out of range", idxOff)
	}
	idx, err := r.fetch(idxOff, r.size-footerLen-idxOff)
	if err != nil {
		return err
	}
	if got := crc32.ChecksumIEEE(idx); got != binary.LittleEndian.Uint32(foot[8:12]) {
		return errors.New("index CRC mismatch")
	}
	c := cursor{b: idx}
	entries := c.indexEntries()
	if c.err != nil {
		return fmt.Errorf("section index: %w", c.err)
	}
	if len(entries) != r.hdr.Sections {
		return fmt.Errorf("index has %d entries, header declares %d", len(entries), r.hdr.Sections)
	}
	byID := make(map[int]int, len(entries))
	next := r.bodyOff
	for i, s := range entries {
		if s.Offset != next {
			return fmt.Errorf("index entry %d at offset %d, previous frame ends at %d", i, s.Offset, next)
		}
		if _, dup := byID[s.Epoch]; dup {
			return fmt.Errorf("index lists epoch %d twice", s.Epoch)
		}
		byID[s.Epoch] = i
		next += frameLen(s)
	}
	if next != idxOff {
		return fmt.Errorf("sections end at offset %d, index starts at %d", next, idxOff)
	}
	r.index, r.byID, r.idxOff = entries, byID, idxOff
	return nil
}

// recoverScan rebuilds the section index by walking frames forward from
// the end of the header, keeping every section whose frame parses and
// whose payload CRC checks, and stopping at the first damage. This is
// the truncated-log path: everything up to the cut survives.
func (r *Reader) recoverScan() {
	r.byID = make(map[int]int)
	for off := r.bodyOff; ; {
		info, frame, _, err := r.frame(off, nil)
		if err != nil {
			return
		}
		r.byID[info.Epoch] = len(r.index)
		r.index = append(r.index, info)
		off += int64(len(frame))
	}
}

// frame fetches the section frame at file offset off and validates it
// down to the payload CRC; payload is the tail of frame. It is the one
// way a section leaves the file — epoch fetches, WriteRange, Chunks and
// the recovery scan all come through here. With the frame's index entry
// in hand (want) its length is known before the read, because sections
// tile the file, and the frame must then agree with the entry field for
// field. The recovery scan has no entry: it reads the head first, and the
// length the head declares is checked against the file before a buffer
// of that size exists.
func (r *Reader) frame(off int64, want *SectionInfo) (info SectionInfo, frame, payload []byte, err error) {
	n := min(maxFrameHead, r.size-off)
	if want != nil {
		n = frameLen(*want)
	}
	if frame, err = r.fetch(off, n); err != nil {
		return info, nil, nil, err
	}
	c := cursor{b: frame}
	info = c.frameHead()
	info.Offset = off
	total := frameLen(info)
	switch {
	case c.err != nil:
		return info, nil, nil, c.err
	case want != nil && info != *want:
		return info, nil, nil, errors.New("section frame disagrees with index")
	case total != int64(c.pos)+info.Stored:
		return info, nil, nil, errors.New("section frame head is not minimally encoded")
	case total > r.size-off:
		return info, nil, nil, io.ErrUnexpectedEOF
	}
	if want == nil {
		if frame, err = r.fetch(off, total); err != nil {
			return info, nil, nil, err
		}
	}
	payload = frame[c.pos:]
	if got := crc32.ChecksumIEEE(payload); got != info.CRC {
		return info, nil, nil, fmt.Errorf("section payload CRC %#08x, frame declared %#08x", got, info.CRC)
	}
	return info, frame, payload, nil
}

// section is frame for the index entry at position pos.
func (r *Reader) section(pos int) (frame, payload []byte, err error) {
	info := &r.index[pos]
	if _, frame, payload, err = r.frame(info.Offset, info); err != nil {
		err = fmt.Errorf("dplog: epoch %d: %w", info.Epoch, err)
	}
	return frame, payload, err
}

// Header returns the file's decoded fixed header.
func (r *Reader) Header() Header { return r.hdr }

// Size returns the encoded recording's byte length.
func (r *Reader) Size() int64 { return r.size }

// Recovered reports whether the section index was rebuilt by a recovery
// scan because the footer or index was unreadable. A recovered reader
// may expose fewer sections than the header declares.
func (r *Reader) Recovered() bool { return r.damage != nil }

// NumSections returns the number of readable epoch sections.
func (r *Reader) NumSections() int { return len(r.index) }

// Sections returns the section index in file order. The returned slice
// is shared; treat it as read-only.
func (r *Reader) Sections() []SectionInfo { return r.index }

// EpochAt decodes the section at position pos in file order, reading
// only that section's bytes.
func (r *Reader) EpochAt(pos int) (*EpochLog, error) {
	if pos < 0 || pos >= len(r.index) {
		return nil, fmt.Errorf("%w: section position %d of %d", ErrNoEpoch, pos, len(r.index))
	}
	_, payload, err := r.section(pos)
	if err != nil {
		return nil, err
	}
	ep := new(EpochLog)
	if _, _, err := decodePayload(ep, r.index[pos], payload); err != nil {
		return nil, fmt.Errorf("dplog: epoch %d: %w", r.index[pos].Epoch, err)
	}
	return ep, nil
}

// Seek decodes the section for the given epoch id without touching any
// other section, returning ErrNoEpoch if the log does not contain it.
func (r *Reader) Seek(epoch int) (*EpochLog, error) {
	pos, ok := r.byID[epoch]
	if !ok {
		return nil, fmt.Errorf("%w: epoch %d", ErrNoEpoch, epoch)
	}
	return r.EpochAt(pos)
}

// Recording decodes every readable section and returns the full
// recording; for a recovered file that is the surviving prefix.
func (r *Reader) Recording() (*Recording, error) {
	rec := recordingOf(r.hdr)
	rec.Epochs = make([]*EpochLog, len(r.index))
	for pos := range rec.Epochs {
		ep, err := r.EpochAt(pos)
		if err != nil {
			return nil, err
		}
		rec.Epochs[pos] = ep
	}
	return rec, nil
}

// Verify succeeds exactly when UnmarshalBytes would: the index is the
// file's own, not a recovery scan's, and every section's frame, CRC and
// body decode. It keeps none of the epochs, so a caller that only needs to
// know the log is intact pays for one reused EpochLog, not the recording.
func (r *Reader) Verify() error {
	if r.damage != nil {
		return fmt.Errorf("dplog: truncated or corrupt log: %w", r.damage)
	}
	var ep EpochLog
	for pos, info := range r.index {
		_, payload, err := r.section(pos)
		if err != nil {
			return err
		}
		if _, _, err := decodePayload(&ep, info, payload); err != nil {
			return fmt.Errorf("dplog: epoch %d: %w", info.Epoch, err)
		}
	}
	return nil
}

// UnmarshalBytes decodes a whole recording from a byte slice: a reader
// over it, every section in file order. Where OpenReader salvages what it
// can of a damaged file, this refuses one.
func UnmarshalBytes(b []byte) (*Recording, error) {
	rd, err := OpenReaderBytes(b)
	if err != nil {
		return nil, err
	}
	if rd.damage != nil {
		return nil, fmt.Errorf("dplog: truncated or corrupt log: %w", rd.damage)
	}
	return rd.Recording()
}

// Unmarshal reads rd to its end and decodes the recording it holds.
func Unmarshal(rd io.Reader) (*Recording, error) {
	var buf bytes.Buffer
	if l, ok := rd.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(rd); err != nil {
		return nil, err
	}
	return UnmarshalBytes(buf.Bytes())
}

// WriteRange writes a standalone log containing exactly epochs lo..hi
// inclusive (by id), reusing the source header's metadata. Sections are
// copied verbatim — same bytes, same flags, same CRC — so a remote
// replayer gets exactly what the recorder wrote.
func (r *Reader) WriteRange(w io.Writer, lo, hi int) error {
	if lo > hi {
		return fmt.Errorf("dplog: bad epoch range %d..%d", lo, hi)
	}
	frames := make([][]byte, 0, hi-lo+1)
	entries := make([]SectionInfo, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		pos, ok := r.byID[id]
		if !ok {
			return fmt.Errorf("%w: epoch %d", ErrNoEpoch, id)
		}
		frame, _, err := r.section(pos)
		if err != nil {
			return err
		}
		frames = append(frames, frame)
		entries = append(entries, r.index[pos])
	}
	ow := &offsetWriter{w: w}
	var enc encoder
	enc.header(r.hdr, len(frames))
	ow.Write(enc.b)
	for i, frame := range frames {
		entries[i].Offset = ow.n
		ow.Write(frame)
	}
	enc.b = enc.b[:0]
	enc.indexAndFooter(ow.n, entries)
	ow.Write(enc.b)
	return ow.err
}

// Upgrade rewrites any decodable log as the current sectioned format.
// It returns the (possibly unchanged) encoding and whether a rewrite
// happened: current-format intact logs pass through verbatim, retired
// v4/v5 flat streams are re-encoded, and recovered logs are rewritten
// with only their surviving sections (repairing the index).
func Upgrade(data []byte) ([]byte, bool, error) {
	c := cursor{b: data}
	h := c.header(minVersion)
	if c.err != nil {
		return nil, false, c.err
	}
	var rec *Recording
	var err error
	if h.Version < formatVersion {
		rec, err = c.flatEpochs(h)
	} else {
		var rd *Reader
		if rd, err = OpenReaderBytes(data); err == nil {
			if !rd.Recovered() {
				return data, false, nil
			}
			rec, err = rd.Recording()
		}
	}
	if err != nil {
		return nil, false, err
	}
	return MarshalBytes(rec), true, nil
}

// ParseEpochRange parses an epoch range argument: either a single epoch
// id "n" or an inclusive range "n..m".
func ParseEpochRange(s string) (lo, hi int, err error) {
	parse := func(t string) (int, error) {
		if t == "" {
			return 0, fmt.Errorf("empty epoch id")
		}
		n := 0
		for _, c := range t {
			if c < '0' || c > '9' {
				return 0, fmt.Errorf("bad epoch id %q", t)
			}
			n = n*10 + int(c-'0')
			if n > maxEpochs {
				return 0, fmt.Errorf("epoch id %q too large", t)
			}
		}
		return n, nil
	}
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '.' && s[i+1] == '.' {
			if lo, err = parse(s[:i]); err != nil {
				return 0, 0, err
			}
			if hi, err = parse(s[i+2:]); err != nil {
				return 0, 0, err
			}
			if lo > hi {
				return 0, 0, fmt.Errorf("bad epoch range %q: %d > %d", s, lo, hi)
			}
			return lo, hi, nil
		}
	}
	if lo, err = parse(s); err != nil {
		return 0, 0, err
	}
	return lo, lo, nil
}
