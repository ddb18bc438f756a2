// Package store is the daemon's storage tier: a sharded, chunk-level
// deduplicating artifact store for recordings, with retention/GC,
// job-level pinning, and integrity checking (fsck).
//
// Layout on disk:
//
//	<root>/chunks/<aa>/sha256-<hex>    dedup chunks (1 flag byte + payload,
//	                                   optionally DEFLATE at rest; the
//	                                   digest addresses the *raw* bytes)
//	<root>/manifests/<aa>/sha256-<hex> chunk manifests, named by the digest
//	                                   of the recording they reassemble;
//	                                   they carry the spans too small to
//	                                   be worth a chunk file
//	<root>/jobs/<id>/...               per-job artifacts
//	<root>/jobs/<id>/recording.ref     digest of the job's recording
//	<root>/jobs/<id>/pinned            pin marker (protects from GC)
//
// The two-hex-character shard directory (the first byte of the digest)
// keeps any single directory from accumulating millions of entries.
//
// PutRecording splits a v6 recording on its section and intra-section
// group boundaries (dplog.Reader.Chunks), stores each span of
// inlineSpanMax bytes or more content-addressed, and writes a manifest
// that names those and holds the rest — so same-program/different-seed
// runs share their program-driven syscall and sync-order bytes, and a put
// creates only the files that can be shared. A recording is stored this
// one way: bytes that are not an intact v6 log are refused. Crash-safe
// ordering: chunks are durable before the manifest that names them, and GC
// removes refs before manifests before chunks, so an interrupted operation
// can strand an orphan (reclaimed by the next GC) but never a dangling
// reference.
//
// Ref publication is the third leg of that rule. A recording is an
// orphan until a job's recording.ref names it, and a GC that runs between
// PutRecording and SetRecordingRef sweeps it. SetRecordingRef therefore
// takes the store mutex and refuses (ErrNoRecording) a digest that no
// longer resolves, instead of writing a ref to nothing; the caller puts
// the recording again and retries.
//
// The store.* gauges are running totals: every put adds what it wrote,
// and Open and every real GC recount them with the Stats walk. A put
// costs what it writes, not what the store holds.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
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
// before any ref named it. Put the recording again and retry.
var ErrNoRecording = errors.New("store: no recording stored under digest")

// Store is the artifact store handle. All mutating operations — puts,
// ref publication, pins — and GC serialize on an internal mutex, so a
// sweep never races a concurrent put or pin, and a ref is only ever
// written for a recording that is present at that moment.
type Store struct {
	root string
	reg  *trace.Registry

	mu sync.Mutex

	// totals backs the store.* gauges. Puts advance it by what they
	// created; recount reseeds it from the Stats walk at Open and after
	// every real GC. Guarded by mu.
	totals StatsReport

	// sweepHook, when set by tests, runs between the mark and sweep
	// phases of GC (with the store mutex held).
	sweepHook func()
}

// Open creates (if needed) and opens the artifact layout under root.
// reg, when non-nil, receives the store.* gauges.
func Open(root string, reg *trace.Registry) (*Store, error) {
	for _, dir := range []string{root, filepath.Join(root, "chunks"),
		filepath.Join(root, "manifests"), filepath.Join(root, "jobs")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{root: root, reg: reg}
	s.recount()
	return s, nil
}

// Digest computes the content address of a byte string.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256-" + hex.EncodeToString(sum[:])
}

// digester streams bytes into a content address (fsck reassembly).
type digester struct{ h hash.Hash }

func newDigester() *digester                    { return &digester{h: sha256.New()} }
func (d *digester) Write(p []byte) (int, error) { return d.h.Write(p) }
func (d *digester) digest() string              { return "sha256-" + hex.EncodeToString(d.h.Sum(nil)) }

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

// shardPath maps a digest into a namespace ("chunks", "manifests"):
// <root>/<ns>/<first hex byte>/<digest>.
func (s *Store) shardPath(ns, digest string) string {
	return filepath.Join(s.root, ns, digest[len("sha256-"):len("sha256-")+2], digest)
}

// tempPrefix starts the name of a write in flight. A crash between
// writeFileAtomic's create and its rename strands such a file; GC unlinks
// the ones it finds and fsck counts them.
const tempPrefix = ".tmp-"

// writeFileAtomic lands data at path via a temp file in the same
// directory and a rename. Rename-over semantics make concurrent writers
// of the same content-addressed path safe: whichever rename lands last
// wins, and both wrote identical bytes.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if errors.Is(err, fs.ErrNotExist) {
		// First write into this shard: a namespace creates at most 256
		// directories in its life, so only this path pays for the mkdir.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp, err = os.CreateTemp(dir, tempPrefix+"*")
	}
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) // best effort; the write already failed
	}
	return err
}

// putChunk stores one raw chunk content-addressed, DEFLATE-compressed at
// rest when that shrinks it. Only a chunk whose file it created enters the
// totals; the caller holds s.mu.
func (s *Store) putChunk(raw []byte) (digest string, err error) {
	digest = Digest(raw)
	path := s.shardPath("chunks", digest)
	if _, err := os.Stat(path); err == nil {
		return digest, nil
	}
	enc := encodeChunk(raw)
	if err := writeFileAtomic(path, enc); err != nil {
		return "", fmt.Errorf("store: chunk: %w", err)
	}
	s.totals.Chunks++
	s.totals.StoredBytes += int64(len(enc))
	s.totals.UniqueRawBytes += int64(len(raw))
	return digest, nil
}

// readChunk loads and decodes the raw bytes of one ref entry's chunk,
// held to the length the entry declares.
func (s *Store) readChunk(c ManifestChunk) ([]byte, error) {
	if !validDigest(c.Digest) {
		return nil, fmt.Errorf("store: invalid chunk digest %q", c.Digest)
	}
	data, err := os.ReadFile(s.shardPath("chunks", c.Digest))
	if err != nil {
		return nil, err
	}
	return decodeChunk(data, c.Len)
}

// PutRecording stores an encoded recording with chunk-level dedup: the
// artifact is split on its dplog section and group boundaries, each span
// stored content-addressed — or, under inlineSpanMax bytes, in the
// manifest — and the manifest written under the recording's own digest.
// Bytes that expose no chunkable layout (not a dplog, or a damaged one) are
// refused before anything is written. Chunks land before the manifest that
// references them — a crash strands orphan chunks, never a dangling
// manifest.
func (s *Store) PutRecording(data []byte) (digest string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishStats()
	digest = Digest(data)
	if _, err := os.Stat(s.shardPath("manifests", digest)); err == nil {
		return digest, nil
	}
	var chunks []dplog.Chunk
	rd, err := dplog.OpenReaderBytes(data)
	if err == nil {
		chunks, err = rd.Chunks()
	}
	if err != nil {
		return "", fmt.Errorf("store: not a recording: %w", err)
	}
	man := &Manifest{Total: int64(len(data))}
	for _, c := range chunks {
		span := data[c.Offset : c.Offset+c.Len]
		mc := ManifestChunk{Len: c.Len, Kind: uint8(c.Kind)}
		if c.Len < inlineSpanMax {
			man.Inline = append(man.Inline, span...)
		} else if mc.Digest, err = s.putChunk(span); err != nil {
			return "", err
		}
		man.Chunks = append(man.Chunks, mc)
	}
	enc := man.Encode()
	if err := writeFileAtomic(s.shardPath("manifests", digest), enc); err != nil {
		return "", fmt.Errorf("store: manifest: %w", err)
	}
	s.totals.Manifests++
	s.totals.StoredBytes += int64(len(enc))
	s.totals.LogicalBytes += man.Total
	s.totals.UniqueRawBytes += int64(len(man.Inline))
	return digest, nil
}

// loadManifest reads and decodes the manifest stored under digest.
func (s *Store) loadManifest(digest string) (*Manifest, error) {
	data, err := os.ReadFile(s.shardPath("manifests", digest))
	if err != nil {
		return nil, err
	}
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("store: manifest %s: %w", digest, err)
	}
	return man, nil
}

// HasRecording reports whether digest resolves to a stored recording.
func (s *Store) HasRecording(digest string) bool {
	if !validDigest(digest) {
		return false
	}
	_, err := os.Stat(s.shardPath("manifests", digest))
	return err == nil
}

// ---- job artifacts ----

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
	if err := s.WriteJobArtifact(id, "recording.ref", []byte(digest+"\n")); err != nil {
		return err
	}
	// Retention evicts oldest-first by the ref's mtime, which the kernel
	// stamps from its tick clock (4 ms at HZ=250): two refs published
	// within one tick would tie and be evicted in no particular order.
	// Stamp the ref from the full-resolution clock instead.
	now := time.Now()
	return os.Chtimes(s.JobArtifact(id, "recording.ref"), now, now)
}

// RecordingRef resolves a job's recording digest, or "" when the job has
// no stored recording.
func (s *Store) RecordingRef(id string) string {
	data, err := os.ReadFile(s.JobArtifact(id, "recording.ref"))
	if err != nil {
		return ""
	}
	d := strings.TrimSpace(string(data))
	if !validDigest(d) {
		return ""
	}
	return d
}

// Pin protects a job's recording (and every chunk it references) from
// GC until Unpin.
func (s *Store) Pin(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.WriteJobArtifact(id, "pinned", []byte("pinned\n"))
}

// Unpin removes a job's pin; missing pins are a no-op.
func (s *Store) Unpin(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.JobArtifact(id, "pinned"))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Pinned reports whether a job is pinned.
func (s *Store) Pinned(id string) bool {
	_, err := os.Stat(s.JobArtifact(id, "pinned"))
	return err == nil
}

// jobIDs lists the ids with artifact directories.
func (s *Store) jobIDs() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// walkShards visits every file in a namespace's shard directories.
func (s *Store) walkShards(ns string, fn func(name, path string, size int64) error) error {
	base := filepath.Join(s.root, ns)
	shards, err := os.ReadDir(base)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		dir := filepath.Join(base, shard.Name())
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			if err := fn(e.Name(), filepath.Join(dir, e.Name()), info.Size()); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkDigests visits every content-addressed file under a namespace.
func (s *Store) walkDigests(ns string, fn func(digest, path string, size int64) error) error {
	return s.walkShards(ns, func(name, path string, size int64) error {
		if !validDigest(name) {
			return nil
		}
		return fn(name, path, size)
	})
}

// recount reseeds the running totals from the Stats walk — the truth the
// totals are an incremental copy of — and publishes them. It runs where
// the walk is already paid for: once at Open and after every real GC.
// Callers hold s.mu or are single-threaded (Open).
func (s *Store) recount() {
	if s.reg == nil {
		return
	}
	// A walk that fails leaves the totals as they were: the gauges are
	// advisory, and the next collection recounts.
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
	st := &s.totals
	st.derive()
	s.reg.Set("store.chunks", float64(st.Chunks))
	s.reg.Set("store.manifests", float64(st.Manifests))
	s.reg.Set("store.logical_bytes", float64(st.LogicalBytes))
	s.reg.Set("store.stored_bytes", float64(st.StoredBytes))
	s.reg.Set("store.dedup_ratio", st.DedupRatio)
}
