package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
)

// ioPrograms are the I/O-heavy guests: two clients and two servers whose
// logs carry syscall results, so the logs are large and decode is a real
// share of replay.
var ioPrograms = []string{"pfscan", "aget", "webserve", "kvdb"}

// replaySize sizes replay-io.
type replaySize struct {
	programs []string
	seeds    int
	scale    int
	workers  int
	stride   int // checkpoint thinning for sparse replay and seeks
	seeks    int // seeks per recording per pass (at most the retained boundaries)
	passes   int // passes over the corpus per round
}

var replayFull = replaySize{programs: ioPrograms, seeds: 4, scale: 2, workers: 4, stride: 4, seeks: 8, passes: 1}

// recorded is one corpus recording with what replay needs beside the bytes.
type recorded struct {
	g         guestSpec
	prog      *vm.Program
	data      []byte // dplog.MarshalBytes: the compressed v6 file
	rawLen    int    // length of the uncompressed v6 encoding
	instrs    int64
	finalHash uint64
	epochIns  []int64           // instructions per epoch
	sparse    []*epoch.Boundary // thinned, from replay.CheckpointsFrom
	// re-driven once per traced run: full decode and plain sequential
	// replay, the CPU-time split concurrent spans are apportioned by.
	decode, seqWall time.Duration
}

// recordCorpus records one guest and keeps its encoded log. With stride > 0
// it also reconstructs and thins the epoch-start boundaries from the log,
// the way a recording loaded from disk gets them.
func recordCorpus(g guestSpec, spares int, compress bool, stride int) (*recorded, error) {
	bt := g.build()
	res, err := core.Record(bt.Prog, bt.World, g.recordOptions(spares))
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", g, err)
	}
	res.ReleaseCheckpoints()
	if res.Stats.Divergences != 0 {
		return nil, fmt.Errorf("record %s: race-free guest diverged", g)
	}
	rec := res.Recording
	raw := dplog.MarshalBytesWith(rec, dplog.EncodeOptions{Compress: false})
	r := &recorded{g: g, prog: bt.Prog, data: raw, rawLen: len(raw), instrs: instrsOf(rec), finalHash: res.FinalHash}
	if compress {
		r.data = dplog.MarshalBytes(rec)
	}
	for i := range rec.Epochs {
		r.epochIns = append(r.epochIns, epochInstrs(rec, i))
	}
	if stride > 0 {
		bs, err := replay.CheckpointsFrom(context.Background(), bt.Prog, replay.FromRecording(rec), nil)
		if err != nil {
			return nil, fmt.Errorf("checkpoints %s: %w", g, err)
		}
		r.sparse = replay.Thin(bs, stride)
	}
	return r, nil
}

// replayIO replays a corpus recorded in set-up three ways: decode + plain
// sequential replay, seekable reader + segment-parallel replay from thinned
// checkpoints, and single-epoch seeks — the debugger's time-travel
// primitive. Same interpreter as record-compute, entered through follow-mode
// replay and fed by logs large enough that decode matters.
type replayIO struct {
	seed   int64
	size   replaySize
	corpus [][]*recorded // one group per guest seed: the whole program mix
	rates  interpRates
}

func newReplayIO(seed int64, size replaySize) *replayIO {
	return &replayIO{seed: seed, size: size, rates: interpRates{}}
}

func (w *replayIO) name() string { return "replay-io" }

func (w *replayIO) nominalRound() time.Duration { return 900 * time.Millisecond }

func (w *replayIO) setup() error {
	w.corpus = nil
	for s := 0; s < w.size.seeds; s++ {
		w.corpus = append(w.corpus, nil)
		for pi, p := range w.size.programs {
			g := guestSpec{Prog: p, Workers: w.size.workers, Scale: w.size.scale, Seed: guestSeed(w.seed, 2, s*len(w.size.programs)+pi)}
			r, err := recordCorpus(g, 4, true, w.size.stride)
			if err != nil {
				return err
			}
			w.corpus[s] = append(w.corpus[s], r)
		}
	}
	return nil
}

// all returns the corpus as one list.
func (w *replayIO) all() []*recorded {
	var out []*recorded
	for _, g := range w.corpus {
		out = append(out, g...)
	}
	return out
}

func (w *replayIO) teardown() {
	for _, r := range w.all() {
		for _, b := range r.sparse {
			b.CP.Release()
		}
	}
	w.corpus = nil
}

func (w *replayIO) finish() finals {
	var f finals
	for _, r := range w.all() {
		f.storedBytes += int64(len(r.data))
		f.logicalBytes += int64(r.rawLen)
	}
	return f
}

// seekTargets picks up to n retained boundaries of r, spread evenly; the
// final boundary starts no epoch and is left out.
func seekTargets(r *recorded, n int) []*epoch.Boundary {
	cand := r.sparse[:len(r.sparse)-1]
	if len(cand) <= n {
		return cand
	}
	out := make([]*epoch.Boundary, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cand[i*len(cand)/n])
	}
	return out
}

func (w *replayIO) round(tr *tracer, idx int) roundResult {
	var rr roundResult
	lane, endLane := tr.lane("bench.lane")
	t0 := time.Now()
	// An op replays the whole program mix of one guest seed, each recording
	// three ways, so every op is the same work.
	for pass := 0; pass < w.size.passes; pass++ {
		for s, group := range w.corpus {
			a, end := lane.inOp(pass*len(w.corpus) + s).open("bench.op")
			t := time.Now()
			for _, r := range group {
				if pass == 0 {
					rr.logBytes += int64(len(r.data))
					rr.logInstrs += r.instrs
				}
				w.seqReplay(a, r, &rr)
				w.sparseReplay(a, r, &rr)
				for _, b := range seekTargets(r, w.size.seeks) {
					w.seek(a, r, b, &rr)
				}
			}
			end()
			rr.opDone(t)
		}
	}
	rr.wall = time.Since(t0)
	endLane()
	return rr
}

// seqReplay decodes the whole log and replays it on one simulated CPU.
func (w *replayIO) seqReplay(a at, r *recorded, rr *roundResult) {
	var rec *dplog.Recording
	var err error
	a.call("dplog.Unmarshal", func() { rec, err = dplog.Unmarshal(bytes.NewReader(r.data)) })
	if err != nil {
		rr.fail("%s: unmarshal: %v", r.g, err)
		return
	}
	repAt, end := a.open("replay.Sequential")
	rep, err := replay.Sequential(r.prog, rec, nil, nil)
	end()
	if !w.checkReplay(r, rep, err, "sequential", rr) {
		return
	}
	rr.instrs += r.instrs
	if a.t != nil {
		rr.redrive = append(rr.redrive, func() {
			repAt.model("vm.interp", time.Duration(w.rates.of(r.g)*float64(r.instrs)))
		})
	}
}

// sparseReplay opens the log for random access and replays it in parallel
// segments from the thinned checkpoints; each worker seeks its own epochs.
func (w *replayIO) sparseReplay(a at, r *recorded, rr *roundResult) {
	var rd *dplog.Reader
	var err error
	a.call("dplog.OpenReader", func() { rd, err = dplog.OpenReaderBytes(r.data) })
	if err != nil {
		rr.fail("%s: open: %v", r.g, err)
		return
	}
	repAt, end := a.open("replay.ParallelSparse")
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	rep, err := replay.ParallelSparseReader(ctx, r.prog, rd, r.sparse, 2, nil, nil)
	cancel()
	end()
	if !w.checkReplay(r, rep, err, "sparse", rr) {
		return
	}
	rr.instrs += r.instrs
	if a.t != nil {
		rr.redrive = append(rr.redrive, func() {
			// Two workers overlap decode and interpretation, so the span is
			// shorter than its parts; split it by the CPU-time shares the
			// same recording shows when nothing overlaps.
			w.redriveSplit(r)
			cpu := float64(r.decode + r.seqWall)
			if cpu == 0 {
				return
			}
			wall := float64(repAt.t.spans[repAt.parent].dur())
			repAt.model("dplog.decode", time.Duration(wall*float64(r.decode)/cpu))
			repAt.model("vm.interp", time.Duration(wall*w.rates.of(r.g)*float64(r.instrs)/cpu))
		})
	}
}

// seek is time travel: open, decode one epoch, replay it from the retained
// boundary at its start.
func (w *replayIO) seek(a at, r *recorded, b *epoch.Boundary, rr *roundResult) {
	var rd *dplog.Reader
	var ep *dplog.EpochLog
	var err error
	a.call("dplog.OpenReader", func() { rd, err = dplog.OpenReaderBytes(r.data) })
	if err == nil {
		a.call("dplog.EpochAt", func() { ep, err = rd.EpochAt(b.Index) })
	}
	if err != nil {
		rr.fail("%s: seek to epoch %d: %v", r.g, b.Index, err)
		return
	}
	repAt, end := a.open("replay.OneEpoch")
	rep, err := replay.OneEpoch(r.prog, b, ep, rd.Header().Quantum, nil)
	end()
	switch {
	case err != nil:
		rr.fail("%s: epoch %d: %v", r.g, b.Index, err)
		return
	case rep.FinalHash != ep.EndHash:
		rr.fail("%s: epoch %d end hash %016x != logged %016x", r.g, b.Index, rep.FinalHash, ep.EndHash)
		return
	}
	rr.instrs += r.epochIns[b.Index]
	if a.t != nil {
		rr.redrive = append(rr.redrive, func() {
			repAt.model("vm.interp", time.Duration(w.rates.of(r.g)*float64(r.epochIns[b.Index])))
		})
	}
}

func (w *replayIO) checkReplay(r *recorded, rep *replay.Result, err error, how string, rr *roundResult) bool {
	switch {
	case err != nil:
		rr.fail("%s: %s replay: %v", r.g, how, err)
	case rep.FinalHash != r.finalHash:
		rr.fail("%s: %s replay final hash %016x != recorded %016x", r.g, how, rep.FinalHash, r.finalHash)
	default:
		return true
	}
	return false
}

// redriveSplit measures, once per recording, a full decode through the
// reader and a plain sequential replay.
func (w *replayIO) redriveSplit(r *recorded) {
	if r.seqWall > 0 {
		return
	}
	rd, err := dplog.OpenReaderBytes(r.data)
	if err != nil {
		return
	}
	var rec *dplog.Recording
	r.decode = timed(func() { rec, err = rd.Recording() })
	if err != nil {
		return
	}
	r.seqWall = timed(func() { _, err = replay.Sequential(r.prog, rec, nil, nil) })
}
