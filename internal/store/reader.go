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
	cache map[int][]byte // raw blocks by index, in pooled buffers; nil once closed
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

// Close releases the handle's file and gives its cached blocks back.
func (h *Handle) Close() error {
	h.mu.Lock()
	for _, raw := range h.cache {
		freeBlock(raw)
	}
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
		m, err := h.readBlock(p[n:], int(pos/objectBlock), pos%objectBlock)
		if err != nil {
			return n, err
		}
		n += m
	}
	return n, eof
}

// readBlock copies block i's raw bytes from off on into p, from the cache
// or from the file, and returns how many it copied. A cached block is
// copied under h.mu: once the lock is let go, an eviction or a Close may
// give its buffer to another reader. A block read from the file is this
// reader's alone until it is cached; when the cache is full, any one block
// makes room for it.
func (h *Handle) readBlock(p []byte, i int, off int64) (int, error) {
	h.mu.Lock()
	if raw, ok := h.cache[i]; ok {
		n := copy(p, raw[off:])
		h.mu.Unlock()
		return n, nil
	}
	h.mu.Unlock()
	raw, err := h.load(i)
	if err != nil {
		return 0, err
	}
	n := copy(p, raw[off:])
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.cache[i]; dup || h.cache == nil { // another reader cached it first, or the handle closed
		freeBlock(raw)
		return n, nil
	}
	for old, b := range h.cache {
		if len(h.cache) < handleCacheBlocks {
			break
		}
		delete(h.cache, old)
		freeBlock(b)
	}
	h.cache[i] = raw
	return n, nil
}

// load reads block i from the file and returns its raw bytes in a pooled
// buffer: the read buffer itself for a block stored raw, else a second
// one it is inflated into, and the read buffer goes back.
func (h *Handle) load(i int) ([]byte, error) {
	stored := newBlock(h.hdr.off[i+1] - h.hdr.off[i])
	if _, err := h.f.ReadAt(stored, h.hdr.off[i]); err != nil {
		freeBlock(stored)
		return nil, fmt.Errorf("store: block %d: %w", i, err)
	}
	if h.hdr.table[i]&deflated == 0 {
		return stored, nil
	}
	raw, err := h.hdr.inflate(i, newBlock(0), stored)
	freeBlock(stored)
	return raw, err
}
