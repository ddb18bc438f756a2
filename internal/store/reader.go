package store

// Handle is the lazy, strided read path over a stored recording: an
// io.ReaderAt that reassembles bytes on demand from the chunk store, so
// replay-by-id and epoch-range extraction never materialize a whole
// recording in the heap. dplog.OpenReader composes directly on top of it.

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// handleCacheBytes bounds the decoded chunks a Handle keeps in memory.
// Sequential reads touch each chunk once; seeky readers (the dplog
// section index, epoch-range extraction) revisit a few hot chunks. Inline
// spans are not chunks and not in the budget: they arrived with the
// manifest and stay as long as it does.
const handleCacheBytes = 4 << 20

// Handle reads a stored recording lazily. It is safe for concurrent use.
type Handle struct {
	size int64

	// Spans resolved through the manifest — inline ones are in it, the
	// others are chunks, decoded and cached under a byte budget.
	st     *Store
	chunks []ManifestChunk
	inline [][]byte // the bytes of each inline span, nil for a ref
	starts []int64  // cumulative start offset of each span

	mu         sync.Mutex
	cache      map[int][]byte
	cacheOrder []int
	cacheSize  int64
}

// OpenRecording opens the recording stored under digest for random
// access through its chunk manifest. Close the handle when done.
func (s *Store) OpenRecording(digest string) (*Handle, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("store: invalid digest %q", digest)
	}
	man, err := s.loadManifest(digest)
	if err != nil {
		return nil, fmt.Errorf("store: no recording stored under %s", digest)
	}
	h := &Handle{size: man.Total, st: s, chunks: man.Chunks, inline: man.inlineSpans(), cache: map[int][]byte{}}
	h.starts = make([]int64, len(man.Chunks))
	var off int64
	for i, c := range man.Chunks {
		h.starts[i] = off
		off += c.Len
	}
	return h, nil
}

// OpenRecordingByJob opens the recording a job produced.
func (s *Store) OpenRecordingByJob(id string) (*Handle, error) {
	d := s.RecordingRef(id)
	if d == "" {
		return nil, fmt.Errorf("store: job %s has no stored recording", id)
	}
	return s.OpenRecording(d)
}

// Size returns the recording's byte length.
func (h *Handle) Size() int64 { return h.size }

// Close releases the handle's resources.
func (h *Handle) Close() error {
	h.mu.Lock()
	h.cache, h.cacheOrder, h.cacheSize = nil, nil, 0
	h.mu.Unlock()
	return nil
}

// ReadAt implements io.ReaderAt over the reassembled recording bytes.
func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative read offset %d", off)
	}
	if off >= h.size {
		return 0, io.EOF
	}
	if max := h.size - off; int64(len(p)) > max {
		p = p[:max]
		n, err := h.readAt(p, off)
		if err == nil {
			err = io.EOF
		}
		return n, err
	}
	return h.readAt(p, off)
}

func (h *Handle) readAt(p []byte, off int64) (int, error) {
	total := 0
	// First chunk whose span contains off.
	i := sort.Search(len(h.starts), func(i int) bool { return h.starts[i] > off }) - 1
	for total < len(p) {
		if i >= len(h.chunks) {
			return total, io.ErrUnexpectedEOF
		}
		raw, err := h.chunk(i)
		if err != nil {
			return total, err
		}
		rel := off + int64(total) - h.starts[i]
		n := copy(p[total:], raw[rel:])
		total += n
		i++
	}
	return total, nil
}

// chunk returns span i's raw bytes: from the manifest when it is inline,
// else from its chunk file, consulting and maintaining the handle cache.
func (h *Handle) chunk(i int) ([]byte, error) {
	if raw := h.inline[i]; raw != nil {
		return raw, nil
	}
	h.mu.Lock()
	if raw, ok := h.cache[i]; ok {
		h.mu.Unlock()
		return raw, nil
	}
	h.mu.Unlock()
	c := h.chunks[i]
	raw, err := h.st.readChunk(c)
	if err != nil {
		return nil, fmt.Errorf("store: chunk %d (%s): %w", i, c.Digest, err)
	}
	h.mu.Lock()
	if _, ok := h.cache[i]; h.cache != nil && !ok {
		h.cache[i] = raw
		h.cacheOrder = append(h.cacheOrder, i)
		h.cacheSize += int64(len(raw))
		for h.cacheSize > handleCacheBytes && len(h.cacheOrder) > 1 {
			old := h.cacheOrder[0]
			h.cacheOrder = h.cacheOrder[1:]
			h.cacheSize -= int64(len(h.cache[old]))
			delete(h.cache, old)
		}
	}
	h.mu.Unlock()
	return raw, nil
}
