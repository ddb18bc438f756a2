package dplog

// The one decoder. Everything the read side parses — header, section
// frame, index, epoch body — is read off a cursor: a byte slice and a
// position, in the style of mpack-like codecs, never a stream interface.
// The bytes are always in hand before they are parsed (a frame is one
// fetch, an inflated body one buffer), which is what lets a declared
// count be checked against what is really there before anything is
// allocated for it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"doubleplay/internal/vm"
)

// cursor reads varint-coded fields from b at pos. The first failure
// sticks and moves pos to the end, so every later read fails too and
// returns zero: a decode routine reads straight through and its caller
// checks err once.
type cursor struct {
	b   []byte
	pos int
	err error
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.pos = len(c.b)
}

func (c *cursor) u() uint64 {
	if c.pos < len(c.b) && c.b[c.pos] < 0x80 {
		c.pos++
		return uint64(c.b[c.pos-1])
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		if n == 0 {
			c.fail(io.ErrUnexpectedEOF)
		} else {
			c.fail(errors.New("varint overflows 64 bits"))
		}
		return 0
	}
	c.pos += n
	return v
}

func (c *cursor) i() int64 { return unzigzag(c.u()) }

func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

// words decodes len(dst) signed varints, a syscall write's data, in one
// loop with the cursor in locals and the one- to four-byte cases unrolled
// (recorded data words are file bytes, small counts, guest addresses);
// anything longer or cut short goes through u.
func (c *cursor) words(dst []int64) {
	b, pos := c.b, c.pos
	for j := range dst {
		var ux uint64
		switch {
		case pos < len(b) && b[pos] < 0x80:
			ux = uint64(b[pos])
			pos++
		case pos+1 < len(b) && b[pos+1] < 0x80:
			ux = uint64(b[pos]&0x7f) | uint64(b[pos+1])<<7
			pos += 2
		case pos+2 < len(b) && b[pos+2] < 0x80:
			ux = uint64(b[pos]&0x7f) | uint64(b[pos+1]&0x7f)<<7 | uint64(b[pos+2])<<14
			pos += 3
		case pos+3 < len(b) && b[pos+3] < 0x80:
			ux = uint64(b[pos]&0x7f) | uint64(b[pos+1]&0x7f)<<7 | uint64(b[pos+2]&0x7f)<<14 | uint64(b[pos+3])<<21
			pos += 4
		default:
			c.pos = pos
			ux = c.u()
			pos = c.pos
		}
		dst[j] = unzigzag(ux)
	}
	c.pos = pos
}

// take returns the next n bytes as a sub-slice of b.
func (c *cursor) take(n int) []byte {
	if n > len(c.b)-c.pos {
		c.fail(io.ErrUnexpectedEOF)
		return nil
	}
	c.pos += n
	return c.b[c.pos-n : c.pos]
}

func (c *cursor) str() string {
	n := c.u()
	if n > 1<<20 {
		c.fail(fmt.Errorf("string length %d too large", n))
		return ""
	}
	return string(c.take(int(n)))
}

// count reads a length prefix. It must not exceed the format's limit for
// that field (docs/FORMAT.md §7), nor what the remaining bytes could hold
// at min encoded bytes per element — so the caller may allocate the
// returned number of elements outright, and a loop over it terminates
// even on a cursor that has failed.
func (c *cursor) count(what string, limit uint64, min int) int {
	n := c.u()
	if n > limit {
		c.fail(fmt.Errorf("%s count %d too large", what, n))
		return 0
	}
	if n > uint64((len(c.b)-c.pos)/min) {
		c.fail(io.ErrUnexpectedEOF)
		return 0
	}
	return int(n)
}

// resize returns s with length n, reusing its array when that is big
// enough: decoding into a fresh EpochLog allocates each group exactly
// once (an empty group stays nil), decoding into a used one — Chunks and
// Verify walk every body and keep none — allocates nothing.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// header decodes the magic, version and fixed header fields. Versions
// below minVer are refused: minVer is formatVersion for every reader, and
// minVersion only for Upgrade, the one place a retired layout still loads.
func (c *cursor) header(minVer uint64) Header {
	if string(c.take(len(magic))) != magic && c.err == nil {
		c.fail(ErrBadMagic)
	}
	ver := c.u()
	if c.err == nil && (ver < minVer || ver > formatVersion) {
		err := fmt.Errorf("%w: %d", ErrBadVersion, ver)
		if ver >= minVersion && ver < formatVersion {
			err = fmt.Errorf("%w (a retired flat layout: run `doubleplay log upgrade` to rewrite it as v%d)", err, formatVersion)
		}
		c.fail(err)
	}
	h := Header{Version: int(ver)}
	h.Program = c.str()
	h.Workers = int(c.u())
	h.Seed = c.i()
	nsec := c.u()
	if nsec > maxEpochs {
		c.fail(fmt.Errorf("dplog: epoch count %d too large", nsec))
	}
	h.Sections = int(nsec)
	h.FinalHash = c.u()
	h.OutputHash = c.u()
	if ver >= 5 {
		h.Quantum = c.i()
	}
	return h
}

// sectionFields builds a frame's or index entry's SectionInfo from its
// five decoded fields (Offset is the caller's), enforcing their limits.
func (c *cursor) sectionFields(epoch, flags, raw, stored, crc uint64) SectionInfo {
	switch {
	case c.err != nil:
	case epoch > maxEpochs:
		c.fail(fmt.Errorf("epoch id %d too large", epoch))
	case raw > maxSectionLen || stored > maxSectionLen:
		c.fail(fmt.Errorf("section length %d/%d too large", stored, raw))
	case crc > math.MaxUint32:
		c.fail(fmt.Errorf("section CRC %#x does not fit 32 bits", crc))
	case flags&SectionCompressed == 0 && raw != stored:
		c.fail(fmt.Errorf("raw section with stored length %d != raw length %d", stored, raw))
	}
	return SectionInfo{Epoch: int(epoch), Stored: int64(stored), Raw: int64(raw), Flags: flags, CRC: uint32(crc)}
}

// frameHead parses a section frame's marker byte and five varints
// (docs/FORMAT.md §3), leaving the cursor on the first payload byte.
func (c *cursor) frameHead() SectionInfo {
	if m := c.take(1); len(m) == 1 && m[0] != sectionMarker {
		c.fail(errors.New("no section marker"))
	}
	epoch, flags, raw, stored, crc := c.u(), c.u(), c.u(), c.u(), c.u()
	return c.sectionFields(epoch, flags, raw, stored, crc)
}

// maxFrameHead is the longest a frame head can be: marker + five varints.
const maxFrameHead = 1 + 5*binary.MaxVarintLen64

// frameLen is the encoded length of the frame s describes: marker,
// minimally encoded head varints, stored payload.
func frameLen(s SectionInfo) int64 {
	n := int64(1)
	for _, v := range [...]uint64{uint64(s.Epoch), s.Flags, uint64(s.Raw), uint64(s.Stored), uint64(s.CRC)} {
		n += int64(bits.Len64(v|1)+6) / 7
	}
	return n + s.Stored
}

// indexEntries decodes the section index (docs/FORMAT.md §4) from its
// magic on.
func (c *cursor) indexEntries() []SectionInfo {
	if string(c.take(len(indexMagic))) != indexMagic && c.err == nil {
		c.fail(errors.New("bad index magic"))
	}
	entries := make([]SectionInfo, c.count("index entry", maxEpochs, 6))
	for i := range entries {
		epoch, off, stored, raw, flags, crc := c.u(), c.u(), c.u(), c.u(), c.u(), c.u()
		entries[i] = c.sectionFields(epoch, flags, raw, stored, crc)
		if off > math.MaxInt64 {
			c.fail(fmt.Errorf("section offset %d too large", off))
		}
		entries[i].Offset = int64(off)
	}
	return entries
}

// epochBody decodes one epoch body (docs/FORMAT.md §3.1) into ep and
// reports where, in c.b, the metadata group ends (after the schedule) and
// the syscall group ends (before the signals) — the two points Chunks
// splits a raw section at. It is the only walker of the body layout: v6
// section payloads and the retired flat layouts differ only in whether
// the per-epoch flags varint is there (v4 predates it).
func (c *cursor) epochBody(ep *EpochLog, hasFlags bool) (metaEnd, sysEnd int) {
	ep.Index = int(c.u())
	ep.Certified = hasFlags && c.u()&epochFlagCertified != 0
	ep.StartHash, ep.EndHash, ep.CommitHash = c.u(), c.u(), c.u()
	ep.Targets = resize(ep.Targets, c.count("target", 1<<20, 1))
	if ep.Targets == nil {
		ep.Targets = []uint64{} // nil Targets mean "run to completion" to sched.Uni
	}
	for i := range ep.Targets {
		ep.Targets[i] = c.u()
	}
	ep.Schedule = resize(ep.Schedule, c.count("slice", 1<<28, 2))
	for i := range ep.Schedule {
		ep.Schedule[i] = Slice{Tid: int(c.u()), N: c.u()}
	}
	metaEnd = c.pos
	ep.Syscalls = resize(ep.Syscalls, c.count("syscall", 1<<28, 10))
	for i := range ep.Syscalls {
		c.syscall(&ep.Syscalls[i])
	}
	sysEnd = c.pos
	ep.Signals = resize(ep.Signals, c.count("signal", 1<<28, 3))
	for i := range ep.Signals {
		ep.Signals[i] = SignalRecord{Tid: int(c.u()), Retired: c.u(), Sig: c.i()}
	}
	ep.SyncOrder = resize(ep.SyncOrder, c.count("sync", 1<<28, 3))
	for i := range ep.SyncOrder {
		ep.SyncOrder[i] = SyncRecord{Tid: int(c.u()), Kind: vm.ObjKind(c.u()), ID: c.i()}
	}
	return metaEnd, sysEnd
}

// syscall decodes one syscall record (docs/FORMAT.md §3.2).
func (c *cursor) syscall(r *SyscallRecord) {
	r.Tid = int(c.u())
	r.Num = c.i()
	for i := range r.Args {
		r.Args[i] = c.i()
	}
	r.Ret = c.i()
	r.Writes = resize(r.Writes, c.count("write", 1<<20, 2))
	for i := range r.Writes {
		w := &r.Writes[i]
		w.Addr = c.i()
		w.Data = resize(w.Data, c.count("write data", 1<<24, 1))
		c.words(w.Data)
	}
}

// decodePayload decodes a frame's CRC-checked stored payload into ep —
// inflating a compressed one under the frame's declared raw length, into
// the pooled inflater's scratch: nothing epochBody produces aliases the
// body — and holds the body to what the frame says about it: exact raw
// length, no trailing bytes, same epoch id, same certified flag. The two
// offsets are epochBody's, meaningful for a raw section.
func decodePayload(ep *EpochLog, info SectionInfo, payload []byte) (metaEnd, sysEnd int, err error) {
	body := payload
	if info.Compressed() {
		z := inflaters.Get().(*inflater)
		defer inflaters.Put(z)
		if body, err = z.inflate(z.body, payload, info.Raw); err != nil {
			return 0, 0, err
		}
		z.body = body
	}
	c := cursor{b: body}
	metaEnd, sysEnd = c.epochBody(ep, true)
	switch {
	case c.err != nil:
		err = c.err
	case c.pos != len(body):
		err = errors.New("trailing bytes after epoch body")
	case ep.Index != info.Epoch:
		err = fmt.Errorf("section carries epoch %d, frame declared %d", ep.Index, info.Epoch)
	case ep.Certified != info.Certified():
		err = errors.New("section certified flag disagrees with epoch body")
	}
	return metaEnd, sysEnd, err
}
