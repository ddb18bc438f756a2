package store

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// handleCacheBlocks bounds the inflated blocks a Handle keeps: 4 MiB of
// them. Sequential reads touch each block once; seeky readers (the dplog
// section index, epoch-range extraction) revisit a few hot ones.
const handleCacheBlocks = 4 << 20 / objectBlock

// Handle is the lazy, strided read path over a stored recording: an
// io.ReaderAt that inflates only the object blocks a read touches, so
// replay-by-id and epoch-range extraction never hold a whole recording in
// the heap; dplog.OpenReader composes directly on top of it. It keeps the
// object file open, so a GC that unlinks the object does not cut a read
// short. It is safe for concurrent use.
type Handle struct {
	f   *os.File
	hdr *objectHeader

	mu    sync.Mutex
	cache map[int][]byte // inflated blocks by index
}

// OpenRecording opens the recording stored under digest for random
// access. Close the handle when done.
func (s *Store) OpenRecording(digest string) (*Handle, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("store: invalid digest %q", digest)
	}
	f, hdr, err := openObject(s.objectPath(digest))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("store: no recording stored under %s", digest)
	} else if err != nil {
		return nil, fmt.Errorf("store: recording %s: %w", digest, err)
	}
	return &Handle{f: f, hdr: hdr, cache: map[int][]byte{}}, nil
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
func (h *Handle) Size() int64 { return h.hdr.raw }

// Close releases the handle's file and cache.
func (h *Handle) Close() error {
	h.mu.Lock()
	h.cache = nil
	h.mu.Unlock()
	return h.f.Close()
}

// ReadAt implements io.ReaderAt over the recording's raw bytes.
func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative read offset %d", off)
	}
	size := h.Size()
	if off >= size {
		return 0, io.EOF
	}
	var eof error
	if int64(len(p)) > size-off {
		p, eof = p[:size-off], io.EOF
	}
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		i := int(pos / objectBlock)
		raw, err := h.block(i)
		if err != nil {
			return n, err
		}
		n += copy(p[n:], raw[pos%objectBlock:])
	}
	return n, eof
}

// block returns block i's raw bytes, from the cache or inflated from the
// file into it; when the cache is full, any one block makes room.
func (h *Handle) block(i int) ([]byte, error) {
	h.mu.Lock()
	raw, ok := h.cache[i]
	h.mu.Unlock()
	if ok {
		return raw, nil
	}
	stored := make([]byte, h.hdr.off[i+1]-h.hdr.off[i])
	if _, err := h.f.ReadAt(stored, h.hdr.off[i]); err != nil {
		return nil, fmt.Errorf("store: block %d: %w", i, err)
	}
	raw, err := h.hdr.inflate(i, stored)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	for old := range h.cache {
		if len(h.cache) < handleCacheBlocks {
			break
		}
		delete(h.cache, old)
	}
	if h.cache != nil {
		h.cache[i] = raw
	}
	h.mu.Unlock()
	return raw, nil
}
