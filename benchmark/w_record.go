package main

import (
	"fmt"
	"time"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// recordPrograms is record-compute's guest mix: the five scientific kernels,
// whose work is pure interpretation, plus one racy program that keeps
// forward recovery on the measured path.
var recordPrograms = []string{"fft", "lu", "radix", "ocean", "water", "racey"}

// recordSize sizes record-compute.
type recordSize struct {
	programs []string
	seeds    int // guest input seeds per program per round
	scale    int
	workers  int
	spares   int
}

var recordFull = recordSize{programs: recordPrograms, seeds: 2, scale: 2, workers: 4, spares: 4}

// recordCompute is the library-level recording workload: one goroutine
// calling core.Record. Interpreter, schedulers, epoch runner, copy-on-write
// checkpoints and hashing do nearly all the work; dplog, store and server
// are idle.
type recordCompute struct {
	seed  int64
	size  recordSize
	ops   [][]guestSpec // one op per guest seed: the whole program mix
	racy  map[string]bool
	rates interpRates
	// at-rest accounting for stored_bytes_per_logical_byte: these recordings
	// never reach a store, so "at rest" is the compressed dplog file.
	stored, logical int64
}

func newRecordCompute(seed int64, size recordSize) *recordCompute {
	return &recordCompute{seed: seed, size: size, rates: interpRates{}}
}

func (w *recordCompute) name() string { return "record-compute" }

func (w *recordCompute) nominalRound() time.Duration { return 1150 * time.Millisecond }

func (w *recordCompute) setup() error {
	w.ops = w.ops[:0]
	w.racy = map[string]bool{}
	for s := 0; s < w.size.seeds; s++ {
		w.ops = append(w.ops, nil)
		for pi, p := range w.size.programs {
			wl := workloads.Get(p)
			if wl == nil {
				return fmt.Errorf("unknown guest program %q", p)
			}
			w.racy[p] = wl.Racy
			g := guestSpec{Prog: p, Workers: w.size.workers, Scale: w.size.scale, Seed: guestSeed(w.seed, 1, s*len(w.size.programs)+pi)}
			// Prove the input before the clock starts: the guest must run
			// to completion natively and, if it checks itself, pass. Each
			// op still builds its own fresh World.
			if err := validateGuest(g, wl.Racy); err != nil {
				return err
			}
			w.ops[s] = append(w.ops[s], g)
		}
	}
	return nil
}

// validateGuest runs g once with no recording machinery and checks the
// guest's own verdict on its result.
func validateGuest(g guestSpec, racy bool) error {
	bt := g.build()
	if err := bt.Prog.Validate(); err != nil {
		return fmt.Errorf("%s: %w", g, err)
	}
	m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), vm.DefaultCosts())
	if err := sched.NewParallel(m, g.Workers, g.Seed).Run(); err != nil {
		return fmt.Errorf("%s: native run: %w", g, err)
	}
	if racy {
		return nil
	}
	if err := bt.CheckOK(m.Mem.Peek); err != nil {
		return fmt.Errorf("%s: native run: %w", g, err)
	}
	return nil
}

func (w *recordCompute) teardown() {}

func (w *recordCompute) finish() finals {
	return finals{storedBytes: w.stored, logicalBytes: w.logical}
}

func (w *recordCompute) round(tr *tracer, idx int) roundResult {
	var rr roundResult
	w.stored, w.logical = 0, 0
	lane, endLane := tr.lane("bench.lane")
	t0 := time.Now()
	for s, mix := range w.ops {
		opAt, endOp := lane.inOp(s).open("bench.op")
		opStart := time.Now()
		for pi, g := range mix {
			// The racy program must still replay; so must one other per
			// op, a different program each op and each round.
			w.record(opAt, g, w.racy[g.Prog] || pi == (idx+s)%len(mix), &rr)
		}
		endOp()
		rr.opDone(opStart)
	}
	rr.wall = time.Since(t0)
	endLane()
	return rr
}

// record is one recording with its checks, and a sequential replay of it
// when asked.
func (w *recordCompute) record(a at, g guestSpec, replayIt bool, rr *roundResult) {
	var bt *workloads.Built
	a.call("workloads.Build", func() { bt = g.build() })

	var res *core.Result
	var err error
	recAt, endRec := a.open("core.Record")
	res, err = core.Record(bt.Prog, bt.World, g.recordOptions(w.size.spares))
	endRec()
	if err != nil {
		rr.fail("%s: record: %v", g, err)
		return
	}
	if a.t == nil {
		defer res.ReleaseCheckpoints()
	}
	rr.instrs += res.Stats.Retired
	rr.logBytes += int64(res.Stats.FileBytes)
	rr.logInstrs += res.Stats.Retired
	w.stored += int64(res.Stats.FileBytes)
	a.call("dplog.MarshalRaw", func() {
		w.logical += int64(len(dplog.MarshalBytesWith(res.Recording, dplog.EncodeOptions{Compress: false})))
	})

	last := res.Boundaries[len(res.Boundaries)-1]
	if w.racy[g.Prog] {
		if res.Stats.Divergences < 1 {
			rr.fail("%s: racy program recorded without a divergence", g)
		}
	} else {
		if res.Stats.Divergences != 0 {
			rr.fail("%s: race-free program diverged %d times", g, res.Stats.Divergences)
		}
		if err := bt.CheckOK(last.CP.MemSnap.Peek); err != nil {
			rr.fail("%s: guest self-check: %v", g, err)
		}
	}
	var rep *replay.Result
	if replayIt {
		repAt, endRep := a.open("replay.Sequential")
		rep, err = replay.Sequential(bt.Prog, res.Recording, nil, nil)
		endRep()
		switch {
		case err != nil:
			rr.fail("%s: replay: %v", g, err)
		case rep.FinalHash != res.FinalHash:
			rr.fail("%s: replay final hash %016x != recorded %016x", g, rep.FinalHash, res.FinalHash)
		}
		if a.t != nil {
			rr.redrive = append(rr.redrive, func() {
				repAt.model("vm.interp", time.Duration(w.rates.of(g)*float64(instrsOf(res.Recording))))
			})
		}
	}
	if a.t != nil {
		// The re-drive needs the retained checkpoints; it releases them.
		rr.redrive = append(rr.redrive, func() {
			defer res.ReleaseCheckpoints()
			p, err := redriveRecord(g, res)
			if err != nil {
				return
			}
			modelRecord(recAt, p, w.rates.of(g))
		})
	}
}

// modelRecord hangs the re-driven parts under a core.Record span: the
// thread-parallel half (scheduler over interpreter), the epoch-parallel
// executions (epoch runner over interpreter and restore) and the boundary
// captures. What they do not cover stays core's own.
func modelRecord(recAt at, p recordParts, nsPerInstr float64) {
	nat := recAt.model("sched.RunNative", p.native)
	nat.model("vm.interp", time.Duration(nsPerInstr*float64(p.nativeInstrs)))
	ep := recAt.model("epoch.Run", p.epochRun)
	ep.model("vm.interp", time.Duration(nsPerInstr*float64(p.epochInstrs)))
	if n := len(p.restore); n > 0 && p.epochsDriven > 0 {
		// epoch.Run restores its start boundary; charge one restore each.
		ep.model("vm.Restore", sumDur(p.restore)*time.Duration(p.epochsDriven)/time.Duration(n))
	}
	recAt.model("epoch.Capture", sumDur(p.capture)).
		model("vm.Checkpoint", sumDur(p.checkpoint)).
		model("mem.Snapshot", sumDur(p.snapshot))
}
