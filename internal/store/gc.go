package store

// Retention: a mark-and-sweep collector over recording references.
//
// Mark starts from jobs' recording.ref files. A pinned job is always
// live; unpinned jobs die by age (ref older than Policy.MaxAge) and by
// size budget (newest first until Policy.MaxBytes of logical recording
// bytes are retained). A live ref marks the object it names.
//
// Sweep deletes refs, then objects, so a crash mid-GC strands at most an
// orphan object, never a ref to a deleted one; a Handle keeps reading an
// object the sweep unlinks. It also unlinks the temp files of writes a
// crash cut off: GC holds the store mutex, so none is in flight.

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Policy tunes a GC cycle. The zero value collects only unreferenced
// recordings.
type Policy struct {
	// MaxAge expires unpinned recordings whose ref is older; zero keeps
	// every referenced recording regardless of age.
	MaxAge time.Duration
	// MaxBytes bounds the total logical bytes of retained unpinned
	// recordings, evicting oldest-first; zero means unbounded.
	MaxBytes int64
	// DryRun computes the full report without deleting anything.
	DryRun bool
}

// GCReport summarizes one collection cycle.
type GCReport struct {
	DryRun         bool `json:"dry_run,omitempty"`
	Jobs           int  `json:"jobs"`
	Pinned         int  `json:"pinned"`
	LiveRecordings int  `json:"live_recordings"`
	RefsRemoved    int  `json:"refs_removed"`
	// ChunksRemoved counts the recording objects the sweep unlinked, under
	// the name the benchmark harness reads.
	ChunksRemoved  int   `json:"recordings_removed"`
	TempsRemoved   int   `json:"temps_removed"`
	BytesReclaimed int64 `json:"bytes_reclaimed"`
}

// GC runs one mark-and-sweep cycle under the store mutex, so no
// concurrent put or pin races the sweep.
func (s *Store) GC(pol Policy) (GCReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !pol.DryRun {
		defer s.recount()
	}
	rep := GCReport{DryRun: pol.DryRun}
	jobs, err := s.jobs()
	if err != nil {
		return rep, err
	}
	files, err := s.shardFiles(objects)
	if err != nil {
		return rep, fmt.Errorf("store: gc: %w", err)
	}

	// Retention decisions: pins always live and count against the size
	// budget first; then unpinned refs, newest first, die by age or when
	// they no longer fit.
	var refs []jobFiles
	logical := map[string]int64{} // 0 for a ref to nothing
	var budget int64
	for _, j := range jobs {
		rep.Jobs++
		if j.digest == "" {
			continue
		}
		if f, h, err := openObject(s.objectPath(j.digest)); err == nil {
			f.Close()
			logical[j.digest] = h.raw
		}
		if j.pinned {
			budget += logical[j.digest]
		}
		refs = append(refs, j)
	}
	sort.SliceStable(refs, func(a, b int) bool { return refs[a].refTime.After(refs[b].refTime) })
	now, marked := time.Now(), map[string]bool{}
	var dead []jobFiles
	for _, r := range refs {
		switch n := logical[r.digest]; {
		case r.pinned:
			rep.Pinned++
		case pol.MaxAge > 0 && now.Sub(r.refTime) > pol.MaxAge, pol.MaxBytes > 0 && budget+n > pol.MaxBytes:
			dead = append(dead, r)
			continue
		default:
			budget += n
		}
		marked[r.digest] = true
		rep.LiveRecordings++
	}

	if s.sweepHook != nil {
		s.sweepHook()
	}

	// Sweep: refs first, then objects; temp files wherever they are.
	remove := func(path string, size int64, n *int) {
		if pol.DryRun || s.fs.Remove(path) == nil {
			*n++
			rep.BytesReclaimed += size
		}
	}
	removeStat := func(path string, n *int) {
		if info, err := os.Stat(path); err == nil {
			remove(path, info.Size(), n)
		}
	}
	for _, r := range dead {
		removeStat(s.JobArtifact(r.id, "recording.ref"), &rep.RefsRemoved)
	}
	for _, f := range files {
		switch {
		case strings.HasPrefix(f.name, tempPrefix):
			remove(f.path, f.size, &rep.TempsRemoved)
		case validDigest(f.name) && !marked[f.name]:
			remove(f.path, f.size, &rep.ChunksRemoved)
		}
	}
	for _, j := range jobs {
		for _, path := range j.temps {
			removeStat(path, &rep.TempsRemoved)
		}
	}
	return rep, nil
}

// FsckReport is the integrity check's verdict. Errors are real damage;
// orphan recordings (unreferenced but intact) and stale temps (writes a
// crash cut off) are not, and a GC cycle reclaims both.
type FsckReport struct {
	Recordings       int      `json:"recordings"`
	Refs             int      `json:"refs"`
	OrphanRecordings int      `json:"orphan_recordings"`
	StaleTemps       int      `json:"stale_temps"`
	Errors           []string `json:"errors,omitempty"`
}

// OK reports whether the store is intact.
func (r *FsckReport) OK() bool { return len(r.Errors) == 0 }

const maxFsckErrors = 64

func (r *FsckReport) errorf(format string, args ...any) {
	if len(r.Errors) < maxFsckErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Fsck verifies the store exhaustively: every object decodes and inflates
// back to the recording digest it is stored under, and every job ref
// resolves. Damage is reported, never panicked on. Orphans and stale temp
// files are counted but are not errors.
func (s *Store) Fsck() (*FsckReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs, err := s.jobs()
	if err != nil {
		return nil, err
	}
	files, err := s.shardFiles(objects)
	if err != nil {
		return nil, fmt.Errorf("store: fsck: %w", err)
	}
	rep := &FsckReport{}
	refd := map[string]bool{}
	for _, j := range jobs {
		rep.StaleTemps += len(j.temps)
		if j.digest == "" {
			continue
		}
		rep.Refs++
		refd[j.digest] = true
		if !s.HasRecording(j.digest) {
			rep.errorf("job %s: ref %s resolves to no recording", j.id, j.digest)
		}
	}
	for _, f := range files {
		if strings.HasPrefix(f.name, tempPrefix) {
			rep.StaleTemps++
		}
		if !validDigest(f.name) {
			continue
		}
		rep.Recordings++
		if !refd[f.name] {
			rep.OrphanRecordings++
		}
		raw, err := os.ReadFile(f.path)
		if err == nil {
			raw, err = decodeObject(raw)
		}
		if err != nil {
			rep.errorf("recording %s: %v", f.name, err)
		} else if got := Digest(raw); got != f.name {
			rep.errorf("recording %s: inflates to %s", f.name, got)
		}
	}
	return rep, nil
}

// StatsReport is the store's space accounting. LogicalBytes is what the
// stored recordings occupy raw; StoredBytes is the bytes of their objects
// on disk, compressed at rest.
type StatsReport struct {
	Recordings   int   `json:"recordings"`
	LogicalBytes int64 `json:"logical_bytes"`
	StoredBytes  int64 `json:"stored_bytes"`
}

// Stats walks the objects and computes the space accounting.
func (s *Store) Stats() (*StatsReport, error) {
	files, err := s.shardFiles(objects)
	if err != nil {
		return nil, fmt.Errorf("store: stats: %w", err)
	}
	rep := &StatsReport{}
	for _, file := range files {
		if !validDigest(file.name) {
			continue
		}
		rep.Recordings++
		rep.StoredBytes += file.size
		if f, h, err := openObject(file.path); err == nil {
			f.Close()
			rep.LogicalBytes += h.raw
		}
	}
	return rep, nil
}
