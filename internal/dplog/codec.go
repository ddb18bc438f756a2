package dplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// The on-disk format is a fixed header followed by format-version-specific
// content. Since v6 that content is one self-contained section per epoch,
// a trailing offset index, and a fixed footer locating the index, so a
// reader can fetch epoch N without decoding epochs 0..N-1; see section.go
// for the sectioned layer and docs/FORMAT.md for the normative byte-level
// specification. Varints keep the log-size experiment honest: a timeslice
// record costs a couple of bytes, as it would in any careful
// implementation.

// Version history: v4 and v5 were flat streams of epoch bodies with no
// framing or index; v6 wraps each epoch in a framed, optionally
// DEFLATE-compressed section behind an offset index. The encoder writes
// v6 and every reader accepts only v6 (docs/FORMAT.md, "Support policy").

// FormatVersion is the log format version the encoder writes.
const FormatVersion = formatVersion

const (
	magic         = "DPLG"
	formatVersion = 6
	// lastConverter is the last commit whose build converts a retired
	// v4/v5 log to v6 (`doubleplay log upgrade`); refusals name it.
	lastConverter = "965294b"

	epochFlagCertified = 1 << 0

	// maxEpochs bounds the per-file section count against hostile
	// headers.
	maxEpochs = 1 << 24
)

var (
	// ErrBadMagic reports a stream that is not a DoublePlay recording.
	ErrBadMagic = errors.New("dplog: bad magic")
	// ErrBadVersion reports an unsupported format version.
	ErrBadVersion = errors.New("dplog: unsupported format version")
	// ErrNoEpoch reports a Seek or range request for an epoch the log does
	// not contain.
	ErrNoEpoch = errors.New("dplog: no such epoch")
)

// Header is the decoded fixed header of a dplog file.
type Header struct {
	Version    int
	Program    string
	Workers    int
	Seed       int64
	Sections   int // number of epoch sections stored in this file
	FinalHash  uint64
	OutputHash uint64
	Quantum    int64
}

// headerOf derives the header a full encoding of r carries.
func headerOf(r *Recording) Header {
	return Header{
		Version:    formatVersion,
		Program:    r.Program,
		Workers:    r.Workers,
		Seed:       r.Seed,
		Sections:   len(r.Epochs),
		FinalHash:  r.FinalHash,
		OutputHash: r.OutputHash,
		Quantum:    r.Quantum,
	}
}

// recordingOf builds the epoch-less Recording shell a header describes.
func recordingOf(h Header) *Recording {
	return &Recording{
		Program:    h.Program,
		Workers:    h.Workers,
		Seed:       h.Seed,
		FinalHash:  h.FinalHash,
		OutputHash: h.OutputHash,
		Quantum:    h.Quantum,
	}
}

// encoder appends varint-coded fields to b: the cursor's mirror image.
type encoder struct {
	b       []byte
	body, z []byte // section's scratch: an epoch body and its DEFLATE stream
}

func (e *encoder) u(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *encoder) i(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *encoder) str(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) byte(b byte) { e.b = append(e.b, b) }

// header writes the fixed header. The section count is passed separately
// so a range extraction (Reader.WriteRange) can write a subset file that
// reuses the original recording's metadata.
func (e *encoder) header(h Header, sections int) {
	e.b = append(e.b, magic...)
	e.u(formatVersion)
	e.str(h.Program)
	e.u(uint64(h.Workers))
	e.i(h.Seed)
	e.u(uint64(sections))
	e.u(h.FinalHash)
	e.u(h.OutputHash)
	e.i(h.Quantum)
}

// epochReplayPart encodes the sections needed for replay.
func (e *encoder) epochReplayPart(ep *EpochLog) {
	e.u(uint64(ep.Index))
	var flags uint64
	if ep.Certified {
		flags |= epochFlagCertified
	}
	e.u(flags)
	e.u(ep.StartHash)
	e.u(ep.EndHash)
	e.u(ep.CommitHash)
	e.u(uint64(len(ep.Targets)))
	for _, t := range ep.Targets {
		e.u(t)
	}
	e.u(uint64(len(ep.Schedule)))
	for _, s := range ep.Schedule {
		e.u(uint64(s.Tid))
		e.u(s.N)
	}
	e.u(uint64(len(ep.Syscalls)))
	for i := range ep.Syscalls {
		e.syscall(&ep.Syscalls[i])
	}
	e.u(uint64(len(ep.Signals)))
	for _, s := range ep.Signals {
		e.u(uint64(s.Tid))
		e.u(s.Retired)
		e.i(s.Sig)
	}
}

// epochSyncPart encodes the transient sync-order section.
func (e *encoder) epochSyncPart(ep *EpochLog) {
	e.u(uint64(len(ep.SyncOrder)))
	for _, s := range ep.SyncOrder {
		e.u(uint64(s.Tid))
		e.u(uint64(s.Kind))
		e.i(s.ID)
	}
}

func (e *encoder) syscall(r *SyscallRecord) {
	e.u(uint64(r.Tid))
	e.i(r.Num)
	for _, a := range r.Args {
		e.i(a)
	}
	e.i(r.Ret)
	e.u(uint64(len(r.Writes)))
	for _, w := range r.Writes {
		e.i(w.Addr)
		e.u(uint64(len(w.Data)))
		for _, d := range w.Data {
			e.i(d)
		}
	}
}

// encodeEpochBody appends one epoch's complete section payload to dst: the
// replay part followed by the sync-order part (docs/FORMAT.md §3.1).
// replay is how many of its bytes ReplaySize counts: the replay
// part, or all of it for a certified epoch, whose sync order is its replay
// log.
func encodeEpochBody(dst []byte, ep *EpochLog) (body []byte, replay int) {
	e := encoder{b: dst}
	e.epochReplayPart(ep)
	replay = len(e.b) - len(dst)
	e.epochSyncPart(ep)
	if ep.Certified {
		replay = len(e.b) - len(dst)
	}
	return e.b, replay
}

// EncodeOptions tune the v6 encoder.
type EncodeOptions struct {
	// Compress enables per-section DEFLATE: each section is compressed
	// independently and kept compressed only when that shrinks it, so
	// tiny sections stay raw. Marshal uses Compress: true.
	Compress bool
}

// Marshal encodes the full recording (replay sections plus sync-order
// sections) to w in the current sectioned format with per-section
// compression.
func Marshal(w io.Writer, r *Recording) error {
	return marshalWith(w, r, EncodeOptions{Compress: true})
}

// marshalWith is Marshal with explicit encoding options.
func marshalWith(w io.Writer, r *Recording, opt EncodeOptions) error {
	_, err := w.Write(MarshalBytesWith(r, opt))
	return err
}

// MarshalBytes encodes the recording into a byte slice.
func MarshalBytes(r *Recording) []byte {
	return MarshalBytesWith(r, EncodeOptions{Compress: true})
}

// MarshalBytesWith encodes the recording into a byte slice with explicit
// encoding options.
func MarshalBytesWith(r *Recording, opt EncodeOptions) []byte {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	out, _, _, _ := e.file(r, opt.Compress, nil)
	return out
}

// Encode returns the file MarshalBytesWith(r, EncodeOptions{}) returns, the
// counts Sizes reports and the length of MarshalBytes(r), from one walk:
// each epoch body is encoded once, framed as it is into the file, and
// deflated and framed into scratch only to be measured. A recorder that
// keeps the raw file and reports the compressed one's size encodes once.
func (r *Recording) Encode() (raw []byte, replay, full, compressed int) {
	e, m := encoders.Get().(*encoder), encoders.Get().(*encoder)
	defer encoders.Put(e)
	defer encoders.Put(m)
	return e.file(r, false, m)
}

// encoders pools the per-section scratch of whole-file encodes.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// file encodes r as a v6 file, each section DEFLATE-compressed when compress
// is set, and returns it with the counts Sizes reports. Each section is
// framed in e's scratch and kept as a copy of its exact length until the
// file's length is known, so the file is allocated once, at that length.
// With m non-nil every section is also framed compressed in m's scratch,
// and compressed is the length the file would have with compress set.
func (e *encoder) file(r *Recording, compress bool, m *encoder) (out []byte, replay, full, compressed int) {
	e.b = e.b[:0]
	e.header(headerOf(r), len(r.Epochs))
	parts := make([][]byte, 0, len(r.Epochs)+2)
	parts = append(parts, bytes.Clone(e.b))
	off := int64(len(e.b))
	replay, full, compressed = len(e.b), len(e.b), len(e.b)
	entries := make([]SectionInfo, 0, len(r.Epochs))
	var zentries []SectionInfo
	for _, ep := range r.Epochs {
		var n int
		e.body, n = encodeEpochBody(e.body[:0], ep)
		replay += n
		full += len(e.body)
		e.b = e.b[:0]
		s := e.section(ep, e.body, compress)
		s.Offset, off = off, off+int64(len(e.b))
		entries = append(entries, s)
		parts = append(parts, bytes.Clone(e.b))
		if m != nil {
			m.b = m.b[:0]
			s := m.section(ep, e.body, true)
			s.Offset, compressed = int64(compressed), compressed+len(m.b)
			zentries = append(zentries, s)
		}
	}
	e.b = e.b[:0]
	e.indexAndFooter(off, entries)
	if m != nil {
		compressed += len(encodeIndex(zentries)) + footerLen
	}
	return bytes.Join(append(parts, e.b), nil), replay, full, compressed
}

// offsetWriter tracks the file offset of everything written through it,
// so WriteRange can build the section index as it goes. WriteRange does
// not look at write results, so the first failure sticks here: nothing
// more is written and it returns err.
type offsetWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (ow *offsetWriter) Write(p []byte) (int, error) {
	if ow.err != nil {
		return 0, ow.err
	}
	n, err := ow.w.Write(p)
	ow.n += int64(n)
	ow.err = err
	return n, err
}
