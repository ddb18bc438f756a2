// Package store is the daemon's storage tier: a content-addressed artifact
// store for recordings, with retention/GC, job-level pinning, and integrity
// checking (fsck).
//
// Layout on disk:
//
//	<root>/chunks/<aa>/sha256-<hex>    one object per recording, named by the
//	                                   digest of its raw bytes (object.go)
//	<root>/jobs/<id>/...               per-job artifacts
//	<root>/jobs/<id>/recording.ref     digest of the job's recording
//	<root>/jobs/<id>/pinned            pin marker (protects from GC)
//
// The shard directory (the digest's first byte) keeps any one directory
// small. The objects keep the directory name of the chunk files they
// replaced, which the benchmark harness's fsck check deletes from.
//
// Every object, ref and pin lands by a temp file renamed into place, and GC
// removes refs before objects, so a crash can strand an orphan object or a
// temp file (the next GC reclaims both) but never a dangling ref. A write
// of what is already on disk touches no file: a recording already stored
// costs a digest and a stat, a pin already there a stat, and a ref that
// already names the digest a read and an mtime stamp (DESIGN.md, key
// decision 23). Replacing a file by a rename can wait on the disk for the
// replaced file's writeback, so rewriting identical bytes is not free. A
// recording is an orphan until a ref names it, and a GC sweeps orphans, so
// a job stores its recording with PutJobRecording, which writes the object
// and then the ref in one hold of the store mutex: no GC comes between
// them. The separate PutRecording and SetRecordingRef leave that gap;
// SetRecordingRef refuses (ErrNoRecording) a digest that no longer
// resolves, so even there a ref never dangles.
//
// The store.* gauges are running totals: every put adds what it wrote, and
// Open and every real GC recount them with the Stats walk, so a put costs
// what it writes, not what the store holds. Open refuses a root in the
// retired chunk layout (a manifests/ directory), naming the last build
// that converts one.
//
// Buffers go back (DESIGN.md, key decision 16). A Handle's block buffers
// come from one pool of 64 KiB arrays, and each has one owner at a time.
// A block read from the file belongs to the reading goroutine until that
// goroutine puts it in the handle's cache; from then on it belongs to the
// cache, and goes back to the pool when it is evicted or the handle is
// closed, never otherwise. A block the reader does not cache, because
// another read cached it first or the handle closed, the reader gives
// back itself. A block kept raw in the object is its own read
// buffer, so it is given back once, by whoever owns it last; a deflated
// block's read buffer goes back as soon as the block is inflated out of
// it. Nothing outside h.mu may touch a cached block: a read copies out of
// it under the lock, because once the lock is let go an eviction or a Close
// may hand the buffer to another read. A put's object is encoded into a
// pooled buffer, which goes back once the object is written.
//
// What a decode reads and keeps nothing of goes back when the decode
// returns (DESIGN.md, key decision 13): an object open's 4 KiB header
// prefix, the EpochLog a put's Verify decodes into, and the header prefix,
// footer, index and section frames a dplog reader over a Handle reads.
// Only a range extraction (WriteRange), which keeps its frames until it
// writes them, reads into new buffers.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"doubleplay/internal/dplog"
	"doubleplay/internal/trace"
)

// ErrNoRecording is SetRecordingRef's refusal: the digest resolves to no
// stored recording, because it was never put or because a GC collected it
// before any ref named it.
var ErrNoRecording = errors.New("store: no recording stored under digest")

// objects is the namespace directory of the recording objects.
const objects = "chunks"

// Store is the artifact store handle. All mutating operations — puts,
// ref publication, pins — and GC serialize on an internal mutex, so a
// sweep never races a concurrent put or pin, and a ref is only ever
// written for a recording that is present at that moment.
type Store struct {
	root string
	reg  *trace.Registry
	fs   fsys

	mu        sync.Mutex
	totals    StatsReport // behind the store.* gauges
	sweepHook func()      // tests: runs between GC's mark and sweep
}

// Open creates (if needed) and opens the artifact layout under root. A root
// in the retired chunk layout is refused before anything is created. reg,
// when non-nil, receives the store.* gauges.
func Open(root string, reg *trace.Registry) (*Store, error) {
	return open(root, reg, osFS{})
}

func open(root string, reg *trace.Registry, fsys fsys) (*Store, error) {
	if _, err := os.Stat(filepath.Join(root, "manifests")); err == nil {
		return nil, fmt.Errorf("store: %s is in the retired chunk layout; `doubleplay store upgrade` of commit 965294b, the last build that converts one, writes it into a new root", root)
	}
	s := &Store{root: root, reg: reg, fs: fsys}
	for _, dir := range []string{filepath.Join(root, objects), filepath.Join(root, "jobs")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s.recount()
	return s, nil
}

// Digest computes the content address of a byte string.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256-" + hex.EncodeToString(sum[:])
}

// validDigest guards digests read back from refs and directory listings
// before they are used as path components.
func validDigest(d string) bool {
	rest, ok := strings.CutPrefix(d, "sha256-")
	if !ok || len(rest) != 64 {
		return false
	}
	_, err := hex.DecodeString(rest)
	return err == nil
}

// objectPath is where the object named digest lives:
// <root>/chunks/<first hex byte>/<digest>.
func (s *Store) objectPath(digest string) string {
	return filepath.Join(s.root, objects, digest[len("sha256-"):len("sha256-")+2], digest)
}

// fsys is the store's one seam onto the file system: every create, write,
// close, rename, remove and mtime stamp that changes what it holds goes
// through it, so a test can fail or cut short any one of them. Reads and
// mkdirs go to os.
type fsys interface {
	CreateTemp(dir, pattern string) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chtimes(name string, atime, mtime time.Time) error
}

// file is a file being written.
type file interface {
	Write(p []byte) (int, error)
	Close() error
	Name() string
}

// osFS is fsys on the real file system.
type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (file, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil file
	}
	return f, nil
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// tempPrefix starts the name of a write in flight, which a crash strands.
const tempPrefix = ".tmp-"

// writeFileAtomic lands data at path via a temp file in the same
// directory and a rename. Rename-over semantics make concurrent writers
// of the same content-addressed path safe: whichever rename lands last
// wins, and both wrote identical bytes.
func writeFileAtomic(fsys fsys, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, tempPrefix+"*")
	if errors.Is(err, fs.ErrNotExist) {
		// First write into this directory: a namespace creates at most 256
		// shards in its life, so only this path pays for the mkdir.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp, err = fsys.CreateTemp(dir, tempPrefix+"*")
	}
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		fsys.Remove(tmp.Name()) // best effort; the write already failed
	}
	return err
}

// PutRecording stores an encoded recording as one object under its digest.
// Bytes that are not an intact v6 log are refused before anything is
// written; a recording already stored costs a digest and a stat.
func (s *Store) PutRecording(data []byte) (digest string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putRecording(data)
}

// PutJobRecording stores data as PutRecording does and publishes it as job
// id's recording, in one hold of the store mutex, so no GC can sweep the
// object before its ref names it. The object lands before the ref: a crash
// between them strands an orphan, which the next GC reclaims.
func (s *Store) PutJobRecording(id string, data []byte) (digest string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if digest, err = s.putRecording(data); err != nil {
		return "", err
	}
	return digest, s.writeRef(id, digest)
}

// putRecording is PutRecording with s.mu held.
func (s *Store) putRecording(data []byte) (digest string, err error) {
	digest = Digest(data)
	if _, err := os.Stat(s.objectPath(digest)); err == nil {
		return digest, nil
	}
	if err := verify(data); err != nil {
		return "", fmt.Errorf("store: not a recording: %w", err)
	}
	if err := s.putObject(digest, data); err != nil {
		return "", err
	}
	return digest, nil
}

// verify succeeds exactly when data is an intact v6 log.
func verify(data []byte) error {
	rd, err := dplog.OpenReaderBytes(data)
	if err != nil {
		return err
	}
	return rd.Verify()
}

// putObject writes a verified recording's object and counts it in the
// totals; the caller holds s.mu.
func (s *Store) putObject(digest string, data []byte) error {
	buf := objectBufs.Get().(*[]byte)
	defer objectBufs.Put(buf)
	obj := encodeObject(*buf, data)
	*buf = obj
	if err := writeFileAtomic(s.fs, s.objectPath(digest), obj); err != nil {
		return fmt.Errorf("store: recording: %w", err)
	}
	s.totals.Recordings++
	s.totals.StoredBytes += int64(len(obj))
	s.totals.LogicalBytes += int64(len(data))
	s.publishStats()
	return nil
}

// HasRecording reports whether digest resolves to a stored recording.
func (s *Store) HasRecording(digest string) bool {
	if !validDigest(digest) {
		return false
	}
	_, err := os.Stat(s.objectPath(digest))
	return err == nil
}

// JobDir creates (if needed) and returns a job's artifact directory.
func (s *Store) JobDir(id string) (string, error) {
	dir := filepath.Join(s.root, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return dir, nil
}

// JobArtifact returns the path of a named artifact in a job's directory
// (without creating anything).
func (s *Store) JobArtifact(id, name string) string {
	return filepath.Join(s.root, "jobs", id, name)
}

// WriteJobArtifact writes one artifact into a job's directory.
func (s *Store) WriteJobArtifact(id, name string, data []byte) error {
	dir, err := s.JobDir(id)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// SetRecordingRef records which stored recording a job produced. It
// serializes with GC and fails with ErrNoRecording when digest resolves to
// no stored recording — a collection may have run since the put — so a ref
// never dangles.
func (s *Store) SetRecordingRef(id, digest string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.HasRecording(digest) {
		return fmt.Errorf("%w %s", ErrNoRecording, digest)
	}
	return s.writeRef(id, digest)
}

// writeRef publishes digest as job id's recording; the caller holds s.mu
// and has made sure the recording is stored. A ref that already names
// digest is not written again, only stamped.
func (s *Store) writeRef(id, digest string) error {
	path, ref := s.JobArtifact(id, "recording.ref"), digest+"\n"
	if old, err := os.ReadFile(path); err != nil || string(old) != ref {
		if err := writeFileAtomic(s.fs, path, []byte(ref)); err != nil {
			return fmt.Errorf("store: ref: %w", err)
		}
	}
	// Retention evicts oldest-first by the ref's mtime, which the kernel
	// stamps from its tick clock (4 ms at HZ=250): two refs published
	// within one tick would tie and be evicted in no particular order.
	// Stamp the ref from the full-resolution clock instead, also when it
	// was already there: publishing it again makes it the newest.
	now := time.Now()
	return s.fs.Chtimes(path, now, now)
}

// RecordingRef resolves a job's recording digest, or "" when the job has
// no stored recording.
func (s *Store) RecordingRef(id string) string {
	data, err := os.ReadFile(s.JobArtifact(id, "recording.ref"))
	if d := strings.TrimSpace(string(data)); err == nil && validDigest(d) {
		return d
	}
	return ""
}

// Pin protects a job's recording from GC until Unpin. Pinning a pinned job
// costs a stat: only the pin's name is ever read, never its bytes.
func (s *Store) Pin(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.JobArtifact(id, "pinned")
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return writeFileAtomic(s.fs, path, []byte("pinned\n"))
}

// Unpin removes a job's pin; missing pins are a no-op.
func (s *Store) Unpin(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.Remove(s.JobArtifact(id, "pinned")); !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// jobFiles is what GC and fsck read from one job directory.
type jobFiles struct {
	id, digest string // digest: the ref's, or "" for no ref
	pinned     bool
	refTime    time.Time
	temps      []string // ref and pin writes a crash cut off
}

// jobs reads every job directory, in id order.
func (s *Store) jobs() ([]jobFiles, error) {
	ids, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []jobFiles
	for _, e := range ids {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, "jobs", e.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		j := jobFiles{id: e.Name()}
		for _, f := range files {
			switch name := f.Name(); {
			case name == "pinned":
				j.pinned = true
			case name == "recording.ref":
				j.digest = s.RecordingRef(j.id)
				if info, err := f.Info(); err == nil {
					j.refTime = info.ModTime()
				}
			case strings.HasPrefix(name, tempPrefix):
				j.temps = append(j.temps, s.JobArtifact(j.id, name))
			}
		}
		out = append(out, j)
	}
	return out, nil
}

// shardFile is one file in a namespace's shard directories.
type shardFile struct {
	name, path string
	size       int64
}

// shardFiles lists every file in a namespace's shard directories.
func (s *Store) shardFiles(ns string) ([]shardFile, error) {
	shards, err := os.ReadDir(filepath.Join(s.root, ns))
	if err != nil {
		return nil, err
	}
	var out []shardFile
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		dir := filepath.Join(s.root, ns, shard.Name())
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if info, err := e.Info(); err == nil && !e.IsDir() {
				out = append(out, shardFile{e.Name(), filepath.Join(dir, e.Name()), info.Size()})
			}
		}
	}
	return out, nil
}

// recount reseeds the running totals from the Stats walk, once at Open and
// after every real GC, and publishes them. A walk that fails leaves them as
// they were: the gauges are advisory, and the next collection recounts.
// Callers hold s.mu or are single-threaded (Open).
func (s *Store) recount() {
	if s.reg == nil {
		return
	}
	if st, err := s.Stats(); err == nil {
		s.totals = *st
	}
	s.publishStats()
}

// publishStats reports the running totals into the registry. Callers hold
// s.mu or are single-threaded (Open).
func (s *Store) publishStats() {
	if s.reg == nil {
		return
	}
	s.reg.Set("store.recordings", float64(s.totals.Recordings))
	s.reg.Set("store.logical_bytes", float64(s.totals.LogicalBytes))
	s.reg.Set("store.stored_bytes", float64(s.totals.StoredBytes))
}
