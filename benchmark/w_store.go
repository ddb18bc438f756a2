package main

import (
	"fmt"
	"os"
	"time"

	"doubleplay/internal/dplog"
	"doubleplay/internal/store"
	"doubleplay/internal/trace"
)

// storeSize sizes store-churn.
type storeSize struct {
	programs []string
	seeds    int
	scale    int
	workers  int
	keep     int // newest guest-seed groups whose unpinned recordings survive GC
}

var storeFull = storeSize{programs: ioPrograms, seeds: 8, scale: 1, workers: 2, keep: 2}

// storeChurn uses the storage tier directly, the way the daemon does not:
// reads beside writes beside GC, dedup hits beside misses, pinned survivors
// beside evictions — and no interpreter anywhere in the window.
type storeChurn struct {
	seed   int64
	size   storeSize
	corpus []*recorded
	chunks []int    // chunk spans per recording, as PutRecording will split it
	digest []string // content address per recording
	dir    string
	st     *store.Store
	buf    []byte
	// chunkCost caches the re-driven dplog share of a put, per recording.
	chunkCost map[int]time.Duration
	// gc and peak keep the last round's GC report and its Stats at peak
	// size, before that GC.
	gc   store.GCReport
	peak *store.StatsReport
}

func newStoreChurn(seed int64, size storeSize) *storeChurn {
	return &storeChurn{seed: seed, size: size, chunkCost: map[int]time.Duration{}}
}

func (w *storeChurn) name() string { return "store-churn" }

func (w *storeChurn) nominalRound() time.Duration { return 1300 * time.Millisecond }

func jobName(i int) string { return fmt.Sprintf("churn-%03d", i) }

// pinned reports whether recording i is pinned: one program of every guest
// seed's mix, a different one each seed, so a quarter of the corpus survives
// every GC whatever the seed.
func (w *storeChurn) pinned(i int) bool {
	n := len(w.size.programs)
	return i%n == (i/n)%n
}

func (w *storeChurn) setup() error {
	w.corpus, w.chunks, w.digest = nil, nil, nil
	w.chunkCost = map[int]time.Duration{}
	var maxLen int
	for s := 0; s < w.size.seeds; s++ {
		for pi, p := range w.size.programs {
			g := guestSpec{Prog: p, Workers: w.size.workers, Scale: w.size.scale, Seed: guestSeed(w.seed, 3, s*len(w.size.programs)+pi)}
			// Uncompressed: the form the daemon stores, whose section
			// groups line up across runs and so deduplicate.
			r, err := recordCorpus(g, w.size.workers, false, 0)
			if err != nil {
				return err
			}
			rd, err := dplog.OpenReaderBytes(r.data)
			if err != nil {
				return fmt.Errorf("%s: %w", g, err)
			}
			cs, err := rd.Chunks()
			if err != nil {
				return fmt.Errorf("%s: %w", g, err)
			}
			w.corpus = append(w.corpus, r)
			w.chunks = append(w.chunks, len(cs))
			w.digest = append(w.digest, store.Digest(r.data))
			if len(r.data) > maxLen {
				maxLen = len(r.data)
			}
		}
	}
	w.buf = make([]byte, maxLen)
	dir, err := os.MkdirTemp("", "dpbench-store-")
	if err != nil {
		return err
	}
	w.dir = dir
	// A registry, as the daemon passes one: every put then pays the
	// publishStats walk it pays in production.
	w.st, err = store.Open(dir, trace.NewRegistry())
	return err
}

func (w *storeChurn) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
	w.st, w.corpus = nil, nil
}

func (w *storeChurn) round(tr *tracer, idx int) roundResult {
	var rr roundResult
	lane, endLane := tr.lane("bench.lane")
	t0 := time.Now()
	digests := make([]string, len(w.corpus))
	// An op cycles the whole program mix of one guest seed, so every op is
	// the same work.
	n := len(w.size.programs)
	for s := 0; s < len(w.corpus)/n; s++ {
		a, end := lane.inOp(s).open("bench.op")
		t := time.Now()
		for i := s * n; i < (s+1)*n; i++ {
			r := w.corpus[i]
			digests[i] = w.cycle(a, i, r, &rr)
			rr.instrs += r.instrs
			rr.logInstrs += r.instrs
			rr.logBytes += int64(len(r.data))
		}
		end()
		rr.opDone(t)
	}

	// Round maintenance: the stats walk at peak size, pins, then a GC whose
	// byte budget — a little under half the logical bytes — must evict the
	// rest and keep every pinned recording.
	lane.call("store.Stats", func() {
		st, err := w.st.Stats()
		if err != nil {
			rr.fail("stats: %v", err)
		}
		w.peak = st
	})
	lane.call("store.Pin", func() {
		for i := range w.corpus {
			if w.pinned(i) {
				if err := w.st.Pin(jobName(i)); err != nil {
					rr.fail("pin %s: %v", jobName(i), err)
				}
			}
		}
	})
	lane.call("store.GC", func() {
		rep, err := w.st.GC(store.Policy{MaxBytes: w.gcBudget()})
		if err != nil {
			rr.fail("gc: %v", err)
		}
		w.gc = rep
	})
	evicted := 0
	for i, d := range digests {
		if d == "" {
			continue
		}
		ref := w.st.RecordingRef(jobName(i))
		switch {
		case w.pinned(i) && (ref != d || !w.st.HasRecording(d)):
			rr.fail("gc dropped pinned recording %s", jobName(i))
		case ref == "" && w.st.HasRecording(d):
			rr.fail("gc removed the ref of %s but left its manifest", jobName(i))
		case ref == "":
			evicted++
		}
	}
	if want := (n - 1) * (len(w.corpus)/n - w.size.keep); evicted != want {
		rr.fail("gc evicted %d recordings, want %d", evicted, want)
	}
	rr.settle()
	rr.wall = time.Since(t0)
	endLane()
	return rr
}

// gcBudget is the GC's MaxBytes: the pinned recordings plus the unpinned ones
// of the newest keep groups, to the byte. The collector keeps pins, then
// adds unpinned recordings newest first while they fit, so the budget lands
// on a group boundary and the surviving set is the same for every guest
// seed: a size-bounded retention run whose outcome is known in advance.
func (w *storeChurn) gcBudget() int64 {
	n := len(w.size.programs)
	var b int64
	for i, r := range w.corpus {
		if w.pinned(i) || i/n >= len(w.corpus)/n-w.size.keep {
			b += int64(len(r.data))
		}
	}
	return b
}

// cycle takes one recording through the store: put, reference, open, read twice, seek the last epoch
// through the handle, close. It returns the digest the put reported.
func (w *storeChurn) cycle(a at, i int, r *recorded, rr *roundResult) string {
	job := jobName(i)
	var digest string
	var err error
	// A pinned survivor of the last GC is already stored: its put is a
	// digest and a stat. The two kinds of put are different operations and
	// are timed under different names.
	name := "store.PutRecording"
	present := w.st.HasRecording(w.digest[i])
	if present {
		name = "store.PutPresent"
	}
	putAt, endPut := a.open(name)
	digest, err = w.st.PutRecording(r.data)
	endPut()
	switch {
	case err != nil:
		rr.fail("%s: put: %v", r.g, err)
		return ""
	case digest != w.digest[i]:
		rr.fail("%s: put digest %s != content digest %s", r.g, digest, w.digest[i])
	}
	if a.t != nil && !present {
		rr.redrive = append(rr.redrive, func() { putAt.model("dplog.Chunks", w.chunkCostOf(i)) })
	}
	a.call("store.SetRecordingRef", func() { err = w.st.SetRecordingRef(job, digest) })
	if err != nil {
		rr.fail("%s: set ref: %v", r.g, err)
		return digest
	}

	var h *store.Handle
	a.call("store.OpenRecording", func() { h, err = w.st.OpenRecording(digest) })
	if err != nil {
		rr.fail("%s: open: %v", r.g, err)
		return digest
	}
	buf := w.buf[:h.Size()]
	for _, name := range []string{"store.ReadCold", "store.ReadWarm"} {
		a.call(name, func() { _, err = h.ReadAt(buf, 0) })
		if err != nil {
			rr.fail("%s: %s: %v", r.g, name, err)
		} else if got := store.Digest(buf); got != digest {
			rr.fail("%s: %s digest %s != put digest %s", r.g, name, got, digest)
		}
	}
	var rd *dplog.Reader
	a.call("dplog.OpenReader", func() { rd, err = dplog.OpenReader(h, h.Size()) })
	if err == nil {
		a.call("dplog.EpochAt", func() { _, err = rd.EpochAt(rd.NumSections() - 1) })
	}
	if err != nil {
		rr.fail("%s: seek through handle: %v", r.g, err)
	}
	a.call("store.Close", func() { err = h.Close() })
	if err != nil {
		rr.fail("%s: close: %v", r.g, err)
	}
	return digest
}

// chunkCostOf re-drives the dplog work inside a put of recording i: index
// the bytes and enumerate their chunk spans.
func (w *storeChurn) chunkCostOf(i int) time.Duration {
	if d, ok := w.chunkCost[i]; ok {
		return d
	}
	d := timed(func() {
		if rd, err := dplog.OpenReaderBytes(w.corpus[i].data); err == nil {
			_, _ = rd.Chunks() // timing only; set-up already proved it succeeds
		}
	})
	w.chunkCost[i] = d
	return d
}

func (w *storeChurn) finish() finals {
	var f finals
	rep, err := w.st.Fsck()
	switch {
	case err != nil:
		f.failures = append(f.failures, fmt.Sprintf("fsck: %v", err))
	case !rep.OK():
		f.failures = append(f.failures, fmt.Sprintf("fsck: %d errors, first: %s", len(rep.Errors), rep.Errors[0]))
	}
	// At-rest accounting is read at peak size — every recording of every
	// program present — not after the last GC, whose survivors are a
	// program-skewed subset.
	if w.peak != nil {
		f.storedBytes, f.logicalBytes = w.peak.StoredBytes, w.peak.LogicalBytes
	}
	return f
}
