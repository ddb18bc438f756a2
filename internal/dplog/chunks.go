package dplog

// Chunk enumeration splits a v6 recording on section boundaries and, for
// uncompressed sections, on the group boundaries inside each payload: the
// spans same-program runs could share. It is a pure function of the file
// bytes, and the spans are contiguous, verbatim and cover the file exactly.
// The store once split recordings this way; the benchmark harness still
// counts spans with it.

import (
	"errors"
	"fmt"
)

// ChunkKind classifies a chunk span for stats and fsck narration; the
// byte content is what identifies it in the store.
type ChunkKind uint8

const (
	// ChunkHeader is the fixed file header, [0, bodyOff).
	ChunkHeader ChunkKind = iota
	// ChunkEpochMeta is a section's frame head plus the epoch metadata
	// group (index, flags, boundary hashes, targets, schedule) — the
	// seed-entangled part of an epoch.
	ChunkEpochMeta
	// ChunkSyscalls is a section's syscall group (count + records).
	ChunkSyscalls
	// ChunkSync is a section's trailing signal + sync-order groups.
	ChunkSync
	// ChunkSection is a whole section frame kept as one chunk (compressed
	// sections, whose payload bytes expose no group boundaries).
	ChunkSection
	// ChunkIndex is the trailing section index plus footer.
	ChunkIndex
)

// String names a chunk kind for reports.
func (k ChunkKind) String() string {
	switch k {
	case ChunkHeader:
		return "header"
	case ChunkEpochMeta:
		return "epoch-meta"
	case ChunkSyscalls:
		return "syscalls"
	case ChunkSync:
		return "sync"
	case ChunkSection:
		return "section"
	case ChunkIndex:
		return "index"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Chunk is one verbatim byte span of an encoded recording.
type Chunk struct {
	Kind   ChunkKind
	Epoch  int // epoch id the span belongs to; -1 for header and index
	Offset int64
	Len    int64
}

// ErrNoChunks reports a file whose layout cannot be enumerated as
// verbatim chunk spans (recovered logs, which have no intact index).
var ErrNoChunks = errors.New("dplog: no chunkable section layout")

// minSubChunk folds sub-section groups smaller than this into the
// preceding span: a two-byte chunk costs more to track than it can ever
// save. The fold depends only on the section's own bytes, so two
// identical sections always split identically.
const minSubChunk = 16

// Chunks enumerates the file as contiguous verbatim spans covering it
// exactly: the header, per-section spans (split at the epoch-metadata /
// syscall / sync group boundaries when the section is stored
// uncompressed, whole otherwise), and the trailing index + footer. The
// reader's index already tiles the file, so the spans do.
func (r *Reader) Chunks() ([]Chunk, error) {
	if r.Recovered() {
		return nil, ErrNoChunks
	}
	chunks := make([]Chunk, 0, 3*len(r.index)+2)
	chunks = append(chunks, Chunk{Kind: ChunkHeader, Epoch: -1, Offset: 0, Len: r.bodyOff})
	// push adds a section's next group as a span after the last one, or
	// folds a small group into that one.
	push := func(kind ChunkKind, n int) {
		last := &chunks[len(chunks)-1]
		switch {
		case n == 0:
		case n < minSubChunk:
			last.Len += int64(n)
		default:
			chunks = append(chunks, Chunk{Kind: kind, Epoch: last.Epoch, Offset: last.Offset + last.Len, Len: int64(n)})
		}
	}
	var ep EpochLog // decoded into over and over; only the offsets are kept
	for i, info := range r.index {
		frame, payload, err := r.section(nil, i)
		if err != nil {
			return nil, err
		}
		if info.Compressed() {
			chunks = append(chunks, Chunk{Kind: ChunkSection, Epoch: info.Epoch, Offset: info.Offset, Len: int64(len(frame))})
			continue
		}
		// The body is decoded in full, so a payload that would not decode
		// is rejected here rather than split wrong.
		metaEnd, sysEnd, err := decodePayload(&ep, info, payload)
		if err != nil {
			return nil, fmt.Errorf("dplog: epoch %d: %w", info.Epoch, err)
		}
		head := len(frame) - len(payload)
		chunks = append(chunks, Chunk{Kind: ChunkEpochMeta, Epoch: info.Epoch, Offset: info.Offset, Len: int64(head + metaEnd)})
		push(ChunkSyscalls, sysEnd-metaEnd)
		push(ChunkSync, len(payload)-sysEnd)
	}
	chunks = append(chunks, Chunk{Kind: ChunkIndex, Epoch: -1, Offset: r.idxOff, Len: r.size - r.idxOff})
	return chunks, nil
}
