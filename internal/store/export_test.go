package store

import "doubleplay/internal/trace"

// ObjectBlock is the raw size of a recording object's blocks.
const ObjectBlock = objectBlock

// EncodeObject and DecodeObject expose the recording-object codec.
var (
	EncodeObject = encodeObject
	DecodeObject = decodeObject
)

// InlineSpanMax is the raw length from which a span of the retired chunk
// layout had a chunk file of its own.
const InlineSpanMax = inlineSpanMax

// Manifest and ManifestChunk are the retired chunk manifest, which only
// the migration decodes.
type (
	Manifest      = manifest
	ManifestChunk = manifestChunk
)

// DecodeManifest exposes the retired manifest's decoder.
var DecodeManifest = decodeManifest

// FS and File are the store's file-system seam.
type (
	FS   = fsys
	File = file
)

// OSFS is the seam onto the real file system.
var OSFS FS = osFS{}

// OpenFS is Open with every change to the file system made through fsys,
// the migration's included.
func OpenFS(root string, reg *trace.Registry, fsys FS) (*Store, error) {
	return open(root, reg, fsys)
}

// SetSweepHook installs a test hook that runs between GC's mark and
// sweep phases, with the store mutex held.
func (s *Store) SetSweepHook(f func()) { s.sweepHook = f }

// Totals returns the running totals behind the store.* gauges, so tests
// can compare them with the Stats walk.
func (s *Store) Totals() StatsReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// WriteFileAtomic exposes the temp+rename write on the real file system.
func WriteFileAtomic(path string, data []byte) error { return writeFileAtomic(osFS{}, path, data) }

// Root returns the store's base directory, for tests that plant or damage
// files under it.
func (s *Store) Root() string { return s.root }
