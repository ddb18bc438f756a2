package store

// Retention: a mark-and-sweep collector over recording references.
//
// Mark starts from jobs' recording.ref files. A pinned job is always
// live; unpinned jobs die by age (ref older than Policy.MaxAge) and by
// size budget (newest first until Policy.MaxBytes of logical recording
// bytes are retained). Live refs mark their manifest and every chunk the
// manifest names; the spans a manifest carries inline live and die with it.
//
// Sweep deletes in reference order — refs, then manifests, then chunks —
// the mirror image of PutRecording's chunks-before-manifest ordering. A
// crash mid-GC can therefore strand an orphan (collected by the next
// cycle) but never leave a ref or manifest pointing at deleted data.
//
// The sweep also unlinks the temp files of writes that a crash cut off
// before their rename: GC holds the store mutex, so no write of this
// process is in flight, and nothing else would ever remove them.

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Policy tunes a GC cycle. The zero value collects only unreferenced
// data (orphaned manifests and chunks).
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
	DryRun           bool  `json:"dry_run,omitempty"`
	Jobs             int   `json:"jobs"`
	Pinned           int   `json:"pinned"`
	LiveRecordings   int   `json:"live_recordings"`
	RefsRemoved      int   `json:"refs_removed"`
	ManifestsRemoved int   `json:"manifests_removed"`
	ChunksRemoved    int   `json:"chunks_removed"`
	TempsRemoved     int   `json:"temps_removed"`
	BytesReclaimed   int64 `json:"bytes_reclaimed"`
}

// refState is one job's retention input.
type refState struct {
	job     string
	digest  string
	pinned  bool
	modTime time.Time
	logical int64     // reassembled recording size
	man     *Manifest // nil for a ref to nothing
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

	ids, err := s.jobIDs()
	if err != nil {
		return rep, err
	}
	var refs []refState
	for _, id := range ids {
		rep.Jobs++
		d := s.RecordingRef(id)
		if d == "" {
			continue
		}
		st := refState{job: id, digest: d, pinned: s.Pinned(id)}
		if st.pinned {
			rep.Pinned++
		}
		if info, err := os.Stat(s.JobArtifact(id, "recording.ref")); err == nil {
			st.modTime = info.ModTime()
		}
		if man, err := s.loadManifest(d); err == nil {
			st.man, st.logical = man, man.Total
		}
		refs = append(refs, st)
	}

	// Retention decisions: pins always live, then age, then size budget
	// (newest unpinned recordings first).
	now := time.Now()
	live := make([]refState, 0, len(refs))
	var dead []refState
	var unpinned []refState
	for _, r := range refs {
		switch {
		case r.pinned:
			live = append(live, r)
		case pol.MaxAge > 0 && now.Sub(r.modTime) > pol.MaxAge:
			dead = append(dead, r)
		default:
			unpinned = append(unpinned, r)
		}
	}
	if pol.MaxBytes > 0 {
		sort.Slice(unpinned, func(i, j int) bool { return unpinned[i].modTime.After(unpinned[j].modTime) })
		var budget int64
		for _, r := range live {
			budget += r.logical
		}
		for _, r := range unpinned {
			if budget+r.logical > pol.MaxBytes {
				dead = append(dead, r)
				continue
			}
			budget += r.logical
			live = append(live, r)
		}
	} else {
		live = append(live, unpinned...)
	}

	// Mark live manifests and chunks.
	liveManifests := map[string]bool{}
	liveChunks := map[string]bool{}
	for _, r := range live {
		if r.man == nil {
			continue
		}
		liveManifests[r.digest] = true
		for _, c := range r.man.Chunks {
			if c.Digest != "" {
				liveChunks[c.Digest] = true
			}
		}
	}
	rep.LiveRecordings = len(live)

	if s.sweepHook != nil {
		s.sweepHook()
	}

	// Sweep: refs first, then manifests, then chunks.
	remove := func(path string, size int64, n *int) {
		if pol.DryRun {
			*n++
			rep.BytesReclaimed += size
			return
		}
		if err := os.Remove(path); err == nil {
			*n++
			rep.BytesReclaimed += size
		}
	}
	for _, r := range dead {
		path := s.JobArtifact(r.job, "recording.ref")
		if info, err := os.Stat(path); err == nil {
			remove(path, info.Size(), &rep.RefsRemoved)
		}
	}
	for _, ns := range []struct {
		name    string
		live    map[string]bool
		removed *int
	}{
		{"manifests", liveManifests, &rep.ManifestsRemoved},
		{"chunks", liveChunks, &rep.ChunksRemoved},
	} {
		err := s.walkShards(ns.name, func(name, path string, size int64) error {
			switch {
			case strings.HasPrefix(name, tempPrefix):
				remove(path, size, &rep.TempsRemoved)
			case validDigest(name) && !ns.live[name]:
				remove(path, size, ns.removed)
			}
			return nil
		})
		if err != nil {
			return rep, fmt.Errorf("store: gc: %w", err)
		}
	}
	return rep, nil
}

// ---- fsck ----

// FsckReport is the integrity check's verdict. Errors are real damage
// (missing chunks, digest mismatches, undecodable manifests, dangling
// refs); orphans are unreferenced-but-intact files, and stale temps the
// leavings of writes a crash cut off: a GC cycle reclaims both.
type FsckReport struct {
	Manifests       int      `json:"manifests"`
	Chunks          int      `json:"chunks"`
	Refs            int      `json:"refs"`
	OrphanManifests int      `json:"orphan_manifests"`
	OrphanChunks    int      `json:"orphan_chunks"`
	StaleTemps      int      `json:"stale_temps"`
	Errors          []string `json:"errors,omitempty"`
}

// OK reports whether the store is intact.
func (r *FsckReport) OK() bool { return len(r.Errors) == 0 }

const maxFsckErrors = 64

func (r *FsckReport) errorf(format string, args ...any) {
	if len(r.Errors) < maxFsckErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Fsck verifies the store exhaustively: every manifest decodes, names
// only existing chunks whose content matches their digest, and — those
// chunks and its own inline spans together — reassembles to the recording
// digest it is stored under; every job ref resolves. Damage is reported,
// never panicked on. Orphans and stale temp files are counted but are not
// errors.
func (s *Store) Fsck() (*FsckReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &FsckReport{}

	refdManifests := map[string]bool{}
	refdChunks := map[string]bool{}
	ids, err := s.jobIDs()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		d := s.RecordingRef(id)
		if d == "" {
			continue
		}
		rep.Refs++
		if _, err := os.Stat(s.shardPath("manifests", d)); err == nil {
			refdManifests[d] = true
		} else {
			rep.errorf("job %s: ref %s resolves to no manifest", id, d)
		}
	}

	// walk is walkDigests that also counts the temp files it passes.
	walk := func(ns string, fn func(digest, path string)) error {
		err := s.walkShards(ns, func(name, path string, size int64) error {
			if strings.HasPrefix(name, tempPrefix) {
				rep.StaleTemps++
			} else if validDigest(name) {
				fn(name, path)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: fsck: %w", err)
		}
		return nil
	}

	err = walk("manifests", func(digest, path string) {
		rep.Manifests++
		if !refdManifests[digest] {
			rep.OrphanManifests++
		}
		data, err := os.ReadFile(path)
		if err != nil {
			rep.errorf("manifest %s: %v", digest, err)
			return
		}
		man, err := DecodeManifest(data)
		if err != nil {
			rep.errorf("manifest %s: %v", digest, err)
			return
		}
		sum := newDigester()
		inline := man.inlineSpans()
		for i, c := range man.Chunks {
			if c.Digest == "" {
				sum.Write(inline[i])
				continue
			}
			refdChunks[c.Digest] = true
			raw, err := s.readChunk(c)
			if err != nil {
				rep.errorf("manifest %s: chunk %d (%s) missing or unreadable: %v", digest, i, c.Digest, err)
				continue
			}
			if Digest(raw) != c.Digest {
				rep.errorf("chunk %s: content does not match its digest", c.Digest)
				continue
			}
			sum.Write(raw)
		}
		if got := sum.digest(); got != digest {
			rep.errorf("manifest %s: reassembles to %s", digest, got)
		}
	})
	if err != nil {
		return nil, err
	}

	err = walk("chunks", func(digest, path string) {
		rep.Chunks++
		if !refdChunks[digest] {
			rep.OrphanChunks++
		}
	})
	if err != nil {
		return nil, err
	}

	return rep, nil
}

// ---- stats ----

// StatsReport is the store's dedup accounting. LogicalBytes is what the
// stored recordings would occupy reassembled; UniqueRawBytes is the raw
// size of the distinct chunks actually referenced plus the spans each
// manifest carries inline (unique to it by construction); StoredBytes is
// the bytes on disk (chunks and inline spans at rest may additionally be
// compressed). Chunks counts chunk files, so inline spans are not in it.
type StatsReport struct {
	Chunks          int     `json:"chunks"`
	Manifests       int     `json:"manifests"`
	LogicalBytes    int64   `json:"logical_bytes"`
	UniqueRawBytes  int64   `json:"unique_raw_bytes"`
	StoredBytes     int64   `json:"stored_bytes"`
	DedupSavedBytes int64   `json:"dedup_saved_bytes"`
	DedupRatio      float64 `json:"dedup_ratio"`
}

// Stats walks the store and computes the dedup accounting.
func (s *Store) Stats() (*StatsReport, error) {
	rep := &StatsReport{}
	uniq := map[string]int64{}
	err := s.walkDigests("manifests", func(digest, path string, size int64) error {
		rep.Manifests++
		rep.StoredBytes += size
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		man, err := DecodeManifest(data)
		if err != nil {
			return nil
		}
		rep.LogicalBytes += man.Total
		rep.UniqueRawBytes += int64(len(man.Inline))
		for _, c := range man.Chunks {
			if c.Digest != "" {
				uniq[c.Digest] = c.Len
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: stats: %w", err)
	}
	for _, n := range uniq {
		rep.UniqueRawBytes += n
	}
	err = s.walkDigests("chunks", func(digest, path string, size int64) error {
		rep.Chunks++
		rep.StoredBytes += size
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: stats: %w", err)
	}
	rep.derive()
	return rep, nil
}

// derive fills the two fields computed from the byte counts.
func (r *StatsReport) derive() {
	r.DedupSavedBytes = r.LogicalBytes - r.UniqueRawBytes
	r.DedupRatio = 1
	if r.UniqueRawBytes > 0 {
		r.DedupRatio = float64(r.LogicalBytes) / float64(r.UniqueRawBytes)
	}
}
