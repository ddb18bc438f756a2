package store

import "doubleplay/internal/trace"

// ObjectBlock is the raw size of a recording object's blocks.
const ObjectBlock = objectBlock

// DecodeObject exposes the recording-object decoder.
var DecodeObject = decodeObject

// EncodeObject renders raw as a recording object in a buffer of its own.
func EncodeObject(raw []byte) []byte { return encodeObject(nil, raw) }

// FS and File are the store's file-system seam.
type (
	FS   = fsys
	File = file
)

// OSFS is the seam onto the real file system.
var OSFS FS = osFS{}

// OpenFS is Open with every change to the file system made through fsys.
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
