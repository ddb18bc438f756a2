package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/mem"
	"doubleplay/internal/replay"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/store"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// The layer probes measure each layer on its own, on fixed inputs derived
// from -seed, by calling its exported functions — never by instrumenting
// it. They run the same work whatever workload the traced run selected, so
// a probe row means the same thing in every workload's result.

// probeSizes sizes the four probes with the workloads' own size types.
type probeSizes struct {
	record recordSize
	replay replaySize
	store  storeSize
	serve  serveSize
}

// fullProbes is small enough that the whole suite takes about ten seconds.
var fullProbes = probeSizes{
	record: recordSize{programs: recordPrograms, seeds: 1, scale: 1, workers: 4, spares: 4},
	replay: replaySize{programs: ioPrograms, seeds: 1, scale: 1, workers: 4, stride: 4, seeks: 8, passes: 1},
	store:  storeSize{programs: ioPrograms, seeds: 3, scale: 1, workers: 2, keep: 1},
	serve:  serveSize{programs: ioPrograms, clients: 2, sessions: 4, workers: 4, scale: 1, daemonWorkers: 2, queueDepth: 16, stride: 4, downloadEvery: 2},
}

// probeResult collects the probes' metrics and the outcome of their checks.
type probeResult struct {
	seed      int64
	sizes     probeSizes
	rates     interpRates
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
}

func (p *probeResult) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		if len(p.failures) < 8 {
			p.failures = append(p.failures, "probe: "+fmt.Sprintf(format, args...))
		}
	}
}

func (p *probeResult) absorb(rr roundResult) {
	p.attempted += len(rr.opMs)
	p.failed += rr.failed
	p.failures = append(p.failures, rr.failures...)
}

// medianOf times f n times and returns the median duration.
func medianOf(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = ns(timed(f))
	}
	return time.Duration(median(ds))
}

func runProbes(seed int64, sizes probeSizes) (*probeResult, error) {
	p := &probeResult{seed: seed, sizes: sizes, rates: interpRates{}, metrics: map[string]float64{}}
	for _, probe := range []func() error{p.recordProbe, p.replayProbe, p.storeProbe, p.serverProbe} {
		if err := probe(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return p, nil
}

// recordProbe covers vm, mem, sched, epoch, core, trace and workloads: it
// records each program of record-compute's mix once and re-drives the layers
// under the recorder on the same inputs.
func (p *probeResult) recordProbe() error {
	m := p.metrics
	sz := p.sizes.record
	var (
		recMs, buildMs, captureUs, ckptUs, restoreUs, shashUs, snapUs, mhashUs, overhead         []float64
		recWall, nativeWall, epochWall, captureWall, freeWall, hookedWall, plainWall, tracedWall time.Duration
		retired, nativeInstrs, epochIns, freeInstrs, hookedInstrs                                int64
		epochs, divergences, slices, syncEvents, syscalls                                        int
		cowPages, ckptPages                                                                      int64
	)
	for i, prog := range sz.programs {
		g := guestSpec{Prog: prog, Workers: sz.workers, Scale: sz.scale, Seed: guestSeed(p.seed, 6, i)}
		for k := 0; k < 3; k++ {
			buildMs = append(buildMs, ms(timed(func() { g.build() })))
		}
		bt := g.build()
		var res *core.Result
		var err error
		d := timed(func() { res, err = core.Record(bt.Prog, bt.World, g.recordOptions(sz.spares)) })
		if err != nil {
			return fmt.Errorf("record probe %s: %w", g, err)
		}
		st := res.Stats
		racy := st.Divergences > 0
		last := res.Boundaries[len(res.Boundaries)-1]
		p.check(racy || bt.CheckOK(last.CP.MemSnap.Peek) == nil, "%s: guest self-check failed", g)
		recMs = append(recMs, ms(d))
		recWall += d
		retired += st.Retired
		epochs += st.Epochs
		divergences += st.Divergences
		slices += st.Slices
		syncEvents += st.SyncEvents
		syscalls += st.Syscalls
		cowPages += st.CowPages
		ckptPages += st.CheckpointPages

		parts, err := redriveRecord(g, res)
		res.ReleaseCheckpoints()
		if err != nil {
			return fmt.Errorf("record probe: %w", err)
		}
		nativeWall += parts.native
		nativeInstrs += parts.nativeInstrs
		epochWall += parts.epochRun
		epochIns += parts.epochInstrs
		captureWall += sumDur(parts.capture)
		captureUs = append(captureUs, dursUs(parts.capture)...)
		overhead = append(overhead, 100*float64(st.CompletionCycles-parts.nativeCycles)/float64(parts.nativeCycles))

		// Free against hooked, interleaved twice; each keeps its faster run
		// so neither is charged for warming the other's caches.
		var best [2]time.Duration
		var instrs [2]int64
		for rep := 0; rep < 2; rep++ {
			for h, hooked := range []bool{false, true} {
				fd, fn, err := freeRun(g, hooked)
				if err != nil {
					return fmt.Errorf("free run %s: %w", g, err)
				}
				if best[h] == 0 || fd < best[h] {
					best[h], instrs[h] = fd, fn
				}
			}
		}
		freeWall, freeInstrs = freeWall+best[0], freeInstrs+instrs[0]
		hookedWall, hookedInstrs = hookedWall+best[1], hookedInstrs+instrs[1]
		b := boundaryProbe(g, st.Retired/int64(st.Epochs))
		ckptUs = append(ckptUs, b.checkpoint...)
		restoreUs = append(restoreUs, b.restore...)
		shashUs = append(shashUs, b.stateHash...)
		snapUs = append(snapUs, b.snapshot...)
		mhashUs = append(mhashUs, b.memHash...)

		// The trace layer's price on a recording: the same recording with
		// the streamed sink and registry every daemon job carries, against
		// none, in interleaved pairs.
		for k := 0; k < 2; k++ {
			for _, traced := range []bool{false, true} {
				bt := g.build()
				opts := g.recordOptions(sz.spares)
				var sink *trace.StreamSink
				if traced {
					sink = trace.NewStreamSink(io.Discard, 0)
					opts.Trace, opts.Metrics = sink, trace.NewRegistry()
				}
				d := timed(func() {
					var r *core.Result
					if r, err = core.Record(bt.Prog, bt.World, opts); err == nil {
						r.ReleaseCheckpoints()
						if sink != nil {
							err = sink.Close()
						}
					}
				})
				if err != nil {
					return fmt.Errorf("traced record %s: %w", g, err)
				}
				if traced {
					tracedWall += d
				} else {
					plainWall += d
				}
			}
		}
	}
	perK := func(n int) float64 { return 1000 * float64(n) / float64(retired) }
	m["vm.free_ns_per_instr"] = ns(freeWall) / float64(freeInstrs)
	m["vm.hooked_ns_per_instr"] = ns(hookedWall) / float64(hookedInstrs)
	m["vm.checkpoint_us"] = median(ckptUs)
	m["vm.restore_us"] = median(restoreUs)
	m["vm.statehash_us"] = median(shashUs)
	m["mem.snapshot_us"] = median(snapUs)
	m["mem.hash_us"] = median(mhashUs)
	m["mem.cow_pages_per_epoch"] = float64(cowPages) / float64(epochs)
	m["mem.checkpoint_pages_per_epoch"] = float64(ckptPages) / float64(epochs)
	m["sched.parallel_ns_per_instr"] = ns(nativeWall) / float64(nativeInstrs)
	m["sched.slices_per_kinstr"] = perK(slices)
	m["epoch.run_ns_per_instr"] = ns(epochWall) / float64(epochIns)
	m["epoch.capture_us"] = median(captureUs)
	m["epoch.gate_events_per_kinstr"] = perK(syncEvents)
	m["epoch.injected_syscalls_per_kinstr"] = perK(syscalls)
	m["core.record_ms_p50"] = median(recMs)
	m["core.record_ns_per_instr"] = ns(recWall) / float64(retired)
	m["core.self_share_pct"] = 100 * float64(recWall-nativeWall-epochWall-captureWall) / float64(recWall)
	m["core.epochs_per_record"] = float64(epochs) / float64(len(sz.programs))
	m["core.divergences_per_record"] = float64(divergences) / float64(len(sz.programs))
	m["core.sim_overhead_pct"] = mean(overhead)
	m["trace.record_traced_x"] = float64(tracedWall) / float64(plainWall)
	m["trace.stream_ns_per_event"] = streamProbe()
	m["workloads.build_ms"] = median(buildMs)
	return nil
}

// boundaryTimes are per-call costs, in microseconds, at epoch-sized stops of
// a free run.
type boundaryTimes struct {
	checkpoint, restore, stateHash, snapshot, memHash []float64
}

// boundaryProbe free-runs g in epoch-sized steps and, at each stop, times
// what an epoch boundary costs the vm and mem layers: with one epoch of
// writes behind it, alternately Machine.StateHash + Machine.Checkpoint or
// Memory.Hash + Memory.Snapshot (whichever hashes first pays for the dirty
// pages; the second would find them cached), then Checkpoint.Restore. The
// previous stop's checkpoint stays retained, as a recorder retains it, so
// the run between stops pays copy-on-write.
func boundaryProbe(g guestSpec, step int64) boundaryTimes {
	var bt boundaryTimes
	built := g.build()
	costs := vm.DefaultCosts()
	m := vm.NewMachine(built.Prog, simos.NewOS(built.World), costs)
	var held *vm.Checkpoint
	for k := 0; !m.Done() && k < 256; k++ {
		u := sched.NewUni(m)
		u.TotalBudget = uint64(step)
		if err := u.Run(); err != nil && !m.Done() {
			break
		}
		var cp *vm.Checkpoint
		if k%2 == 0 {
			bt.stateHash = append(bt.stateHash, us(timed(func() { m.StateHash() })))
			bt.checkpoint = append(bt.checkpoint, us(timed(func() { cp = m.Checkpoint() })))
		} else {
			bt.memHash = append(bt.memHash, us(timed(func() { m.Mem.Hash() })))
			var snap *mem.Snapshot
			bt.snapshot = append(bt.snapshot, us(timed(func() { snap = m.Mem.Snapshot() })))
			snap.Release()
			cp = m.Checkpoint()
		}
		bt.restore = append(bt.restore, us(timed(func() { cp.Restore(built.Prog, nil, costs) })))
		if held != nil {
			held.Release()
		}
		held = cp
	}
	if held != nil {
		held.Release()
	}
	return bt
}

// streamProbe prices one event through the streaming trace sink.
func streamProbe() float64 {
	const n = 150_000
	sink := trace.NewStreamSink(io.Discard, 0)
	pid := sink.AllocPid("probe")
	d := timed(func() {
		for i := int64(0); i < n; i += 3 {
			sink.Span("slice", i, 2, pid, 0, nil)
			sink.Instant("sync", i+1, pid, 0, nil)
			sink.Counter("log.syscalls", i+2, pid, i)
		}
		_ = sink.Close() // writes to io.Discard cannot fail
	})
	return ns(d) / n
}

// replayProbe covers dplog and replay on an I/O-heavy corpus.
func (p *probeResult) replayProbe() error {
	m := p.metrics
	sz := p.sizes.replay
	var (
		encBytes, rawBytes, fileBytes                          int64
		marshalWall, marshalRawWall, unmarshalWall, readerWall time.Duration
		seqWall, seqReaderWall, sparseWall, ckptWall           time.Duration
		instrs                                                 int64
		freeNs                                                 float64
		allocs, epochs                                         int64
		openUs, epochAtUs, chunksUs, oneEpochUs                []float64
	)
	ctx := context.Background()
	for i, prog := range sz.programs {
		g := guestSpec{Prog: prog, Workers: sz.workers, Scale: sz.scale, Seed: guestSeed(p.seed, 7, i)}
		r, err := recordCorpus(g, 4, true, 0)
		if err != nil {
			return fmt.Errorf("replay probe: %w", err)
		}
		var rec *dplog.Recording
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rec, err = dplog.Unmarshal(bytes.NewReader(r.data))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("replay probe %s: %w", g, err)
		}
		allocs += int64(ms1.Mallocs - ms0.Mallocs)
		epochs += int64(len(rec.Epochs))
		fileBytes += int64(len(r.data))
		unmarshalWall += medianOf(3, func() { _, _ = dplog.Unmarshal(bytes.NewReader(r.data)) })

		var enc, raw []byte
		marshalWall += medianOf(3, func() { enc = dplog.MarshalBytes(rec) })
		marshalRawWall += medianOf(3, func() { raw = dplog.MarshalBytesWith(rec, dplog.EncodeOptions{Compress: false}) })
		encBytes += int64(len(enc))
		rawBytes += int64(len(raw))
		p.check(bytes.Equal(enc, r.data), "%s: re-encoding a decoded log changed its bytes", g)

		var rd *dplog.Reader
		openUs = append(openUs, us(medianOf(5, func() { rd, err = dplog.OpenReaderBytes(r.data) })))
		if err != nil {
			return fmt.Errorf("replay probe %s: %w", g, err)
		}
		for pos := 0; pos < rd.NumSections(); pos++ {
			epochAtUs = append(epochAtUs, us(timed(func() { _, err = rd.EpochAt(pos) })))
			p.check(err == nil, "%s: EpochAt(%d): %v", g, pos, err)
		}
		readerWall += medianOf(3, func() { _, _ = rd.Recording() })
		if rawRd, err := dplog.OpenReaderBytes(raw); err == nil {
			chunksUs = append(chunksUs, us(medianOf(5, func() { _, _ = rawRd.Chunks() })))
		}

		var rep *replay.Result
		seqWall += timed(func() { rep, err = replay.Sequential(r.prog, rec, nil, nil) })
		p.check(err == nil && rep.FinalHash == r.finalHash, "%s: sequential replay: %v", g, err)
		seqReaderWall += timed(func() { rep, err = replay.SequentialReader(ctx, r.prog, rd, nil, nil) })
		p.check(err == nil && rep.FinalHash == r.finalHash, "%s: reader-backed sequential replay: %v", g, err)

		d := timed(func() {
			bs, cerr := replay.CheckpointsFrom(ctx, r.prog, replay.FromReader(rd), nil)
			if err = cerr; err == nil {
				r.sparse = replay.Thin(bs, sz.stride)
			}
		})
		if err != nil {
			return fmt.Errorf("replay probe %s: checkpoints: %w", g, err)
		}
		ckptWall += d
		sparseWall += timed(func() { rep, err = replay.ParallelSparseReader(ctx, r.prog, rd, r.sparse, 2, nil, nil) })
		p.check(err == nil && rep.FinalHash == r.finalHash, "%s: sparse replay: %v", g, err)
		for _, b := range r.sparse[:len(r.sparse)-1] {
			ep, err := rd.EpochAt(b.Index)
			if err != nil {
				p.check(false, "%s: EpochAt(%d): %v", g, b.Index, err)
				continue
			}
			oneEpochUs = append(oneEpochUs, us(timed(func() { rep, err = replay.OneEpoch(r.prog, b, ep, rd.Header().Quantum, nil) })))
			p.check(err == nil && rep.FinalHash == ep.EndHash, "%s: epoch %d: %v", g, b.Index, err)
		}
		for _, b := range r.sparse {
			b.CP.Release()
		}
		instrs += r.instrs
		freeNs += p.rates.of(g) * float64(r.instrs)
	}
	m["dplog.marshal_mb_per_s"] = mbPerS(encBytes, marshalWall)
	m["dplog.marshal_raw_mb_per_s"] = mbPerS(rawBytes, marshalRawWall)
	m["dplog.unmarshal_mb_per_s"] = mbPerS(fileBytes, unmarshalWall)
	m["dplog.unmarshal_allocs_per_epoch"] = float64(allocs) / float64(epochs)
	m["dplog.open_us"] = median(openUs)
	m["dplog.epochat_us"] = median(epochAtUs)
	m["dplog.chunks_us"] = median(chunksUs)
	m["dplog.reader_recording_mb_per_s"] = mbPerS(fileBytes, readerWall)
	m["replay.seq_ns_per_instr"] = ns(seqWall) / float64(instrs)
	m["replay.seq_reader_ns_per_instr"] = ns(seqReaderWall) / float64(instrs)
	m["replay.sparse_ns_per_instr"] = ns(sparseWall) / float64(instrs)
	m["replay.sparse_speedup_x"] = float64(seqReaderWall) / float64(sparseWall)
	m["replay.oneepoch_us_p50"] = median(oneEpochUs)
	m["replay.checkpoints_ms"] = ms(ckptWall) / float64(len(sz.programs))
	m["replay.follow_vs_free_x"] = ns(seqWall) / freeNs
	return nil
}

// storeProbe covers the store: two traced churn rounds on a small corpus,
// an fsck, and the two-writer contention ratio.
func (p *probeResult) storeProbe() error {
	m := p.metrics
	w := newStoreChurn(p.seed, p.sizes.store)
	if err := w.setup(); err != nil {
		w.teardown()
		return fmt.Errorf("store probe: %w", err)
	}
	defer w.teardown()
	p.absorb(w.round(nil, 0))
	tr := newTracer()
	const rounds = 2
	for r := 1; r <= rounds; r++ {
		p.absorb(w.round(tr, r))
	}
	by := durationsByName(tr.spans)
	var corpusBytes int64
	var chunkRefs int
	for i, r := range w.corpus {
		corpusBytes += int64(len(r.data))
		chunkRefs += w.chunks[i]
	}
	readMB := func(name string) float64 {
		return float64(rounds*corpusBytes) / 1e6 / (sum(by[name]) / 1e3)
	}
	m["store.put_ms_p50"] = median(by["store.PutRecording"])
	m["store.put_ms_p95"] = quantile(by["store.PutRecording"], 0.95)
	m["store.put_present_us_p50"] = 1e3 * median(by["store.PutPresent"])
	// In the steady state a round creates exactly the chunks its GC then
	// removes, so the collector's count is the number of new chunk files.
	m["store.put_chunks_new_share"] = float64(w.gc.ChunksRemoved) / float64(chunkRefs)
	m["store.open_us_p50"] = 1e3 * median(by["store.OpenRecording"])
	m["store.read_cold_mb_per_s"] = readMB("store.ReadCold")
	m["store.read_warm_mb_per_s"] = readMB("store.ReadWarm")
	m["store.range_read_us_p50"] = 1e3 * median(by["dplog.EpochAt"])
	m["store.gc_ms"] = median(by["store.GC"])
	m["store.gc_chunks_removed"] = float64(w.gc.ChunksRemoved)
	m["store.stats_ms"] = median(by["store.Stats"])
	var fin finals
	m["store.fsck_ms"] = ms(timed(func() { fin = w.finish() }))
	for _, f := range fin.failures {
		p.check(false, "%s", f)
	}

	solo, err := putLatencies(w.corpus, 1)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	duo, err := putLatencies(w.corpus, 2)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	m["store.put2_slowdown_x"] = median(duo) / median(solo)
	return nil
}

// putLatencies puts the corpus into a fresh store from n goroutines, each
// taking a disjoint share, and returns every put's latency in milliseconds.
func putLatencies(corpus []*recorded, n int) ([]float64, error) {
	dir, err := os.MkdirTemp("", "dpbench-put-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, trace.NewRegistry())
	if err != nil {
		return nil, err
	}
	lat := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(corpus); i += n {
				d := timed(func() {
					if _, err := st.PutRecording(corpus[i].data); err != nil {
						errs[g] = err
					}
				})
				lat[g] = append(lat[g], ms(d))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for g := range lat {
		if errs[g] != nil {
			return nil, errs[g]
		}
		all = append(all, lat[g]...)
	}
	return all, nil
}

// serverProbe covers the daemon: one traced round of sessions on a fresh
// daemon, then the same jobs' work re-driven in the library.
func (p *probeResult) serverProbe() error {
	m := p.metrics
	w := newServeSession(p.seed, p.sizes.serve)
	if err := w.setup(); err != nil {
		w.teardown()
		return fmt.Errorf("server probe: %w", err)
	}
	defer w.teardown()
	tr := newTracer()
	rr := w.round(tr, 1)
	p.absorb(rr)
	w.mu.Lock()
	obs := w.obs
	w.mu.Unlock()
	var lib []float64
	for prog, id := range obs.recordJob {
		parts, err := w.redriveJobs(obs.recordG[prog], id)
		if err != nil {
			return fmt.Errorf("server probe: re-drive %s: %w", prog, err)
		}
		lib = append(lib, ms(parts.record+parts.marshal+parts.put))
	}
	by := durationsByName(tr.spans)
	m["server.submit_ms_p50"] = median(by["server.submit"])
	m["server.queue_ms_p50"] = median(by["server.queue"])
	m["server.record_run_ms_p50"] = median(by["server.run.record"])
	m["server.replay_seq_run_ms_p50"] = median(by["server.run.seq"])
	m["server.replay_sparse_run_ms_p50"] = median(by["server.run.sparse"])
	m["server.record_overhead_ms"] = median(by["server.run.record"]) - median(lib)
	m["server.range_ms_p50"] = median(by["server.range"])
	m["server.download_mb_per_s"] = mbPerS(obs.dlBytes, obs.dlTime)
	m["server.poll_lag_ms_p50"] = median(obs.lagMs)
	m["server.session_p95_ms"] = quantile(rr.opMs, 0.95)
	m["server.rejected"] = float64(obs.rejected)
	m["server.metrics_scrape_ms"] = median(by["server.metrics"])
	m["server.list_ms"] = median(by["server.list"])
	return nil
}
