// Package replay reproduces recorded executions. Because every epoch of
// the logged execution ran on a single simulated CPU, replaying it needs
// only the timeslice schedule and the recorded syscall results — and
// because epochs start from retained checkpoints, they can be replayed
// concurrently on real host cores (epoch-parallel replay), which is how
// DoublePlay makes replay as scalable as recording.
//
// There is one engine. A [Stepper] replays one epoch — at batch speed or
// an instruction at a time, the same scheduler either way — and verifies
// it against the log. [Run] replays a whole [Source] as a plan of
// segments: each retained checkpoint in [Options.Boundaries] anchors a run
// of consecutive epochs replayed back to back on one machine, and the
// segments run concurrently. No boundaries is sequential replay from
// program reset; every boundary is epoch-parallel replay; a thinned set
// (see [Thin]) is sparse segment-parallel replay, trading parallelism for
// checkpoint memory. A stored log carries no checkpoints, so with
// [Options.Stride] the plan is priced from the one sequential pass that
// would otherwise rebuild them. Every plan checks each epoch's start and
// end hash and the recording's final hash, prices itself with the greedy
// makespan model, and narrates its timeline to an optional trace sink as
// "replay.epoch"/"replay.segment" spans with nested per-timeslice detail
// (see docs/OBSERVABILITY.md).
package replay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/profile"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// ErrCertViolated reports a certified epoch that failed to reproduce its
// recorded end state. Certified epochs were committed without the
// epoch-parallel verification pass on the strength of a race-free static
// certificate, so any failure here is not an ordinary replay divergence —
// it is a soundness bug in the certificate and must be treated as fatal.
var ErrCertViolated = errors.New("replay: certified epoch violated its race-freedom certificate")

// Result reports a completed replay.
type Result struct {
	// Cycles is the modelled completion time: the makespan of packing the
	// plan's segments onto the available cores, which for sequential
	// replay is the total serialized cycles.
	Cycles    int64
	FinalHash uint64
	Epochs    int
	// LoopInstrs is how many of the replayed instructions retired inside
	// the scheduler's hook-free slice loop (sched.Uni.LoopRetired), summed
	// over all segments; the rest took the per-instruction path.
	LoopInstrs uint64
}

// Options selects how [Run] replays a source. The zero value is untraced,
// unprofiled sequential replay from program reset at default costs.
type Options struct {
	// Boundaries are the retained epoch-start checkpoints to replay from,
	// ordered by Index and starting at epoch 0; each must be an epoch
	// boundary of the source (core.Result.Boundaries, [Thin] and
	// [CheckpointsFrom] produce valid sets; a trailing final-state
	// boundary is ignored). Empty means one segment from program reset.
	Boundaries []*epoch.Boundary
	// Stride, with no Boundaries, selects the plan that
	// Thin(CheckpointsFrom(src), Stride) anchors — segments of Stride
	// consecutive epochs — without rebuilding a checkpoint: one pass from
	// program reset replays and verifies every epoch, and the plan is
	// priced and narrated from the epochs' costs, which do not depend on
	// the machine an epoch starts on. Result, trace and profile are those
	// of the two-pass replay. Zero is sequential replay.
	Stride int
	// CPUs bounds how many segments run at once and is the core count
	// the makespan is packed onto; values below 1 mean 1.
	CPUs int
	// Costs is the cycle cost model; nil selects vm.DefaultCosts.
	Costs *vm.CostModel
	// Trace, when enabled, receives the replay's timeline. Sequential
	// replay streams one "replay.epoch" span per epoch onto a single
	// track as it goes; other plans place each segment at its
	// packed position on a track per modelled core — bare "replay.epoch"
	// spans when every segment is one epoch, "replay.segment" spans
	// wrapping them otherwise.
	Trace *trace.Sink
	// Profile, when non-nil, accumulates the guest profile of the
	// replayed execution. Each segment profiles its own machine and the
	// profiles merge after the fan-out; merging is commutative over
	// canonical stack keys, so every plan yields the bytes the recorder
	// gathered for the same log (see internal/profile).
	Profile *profile.Profile
}

// segment is a run of consecutive epochs [lo, hi) replayed on one machine
// from start's checkpoint; with none, it continues the machine the
// previous segment ended on, or starts the first from program reset.
type segment struct {
	start  *epoch.Boundary
	lo, hi int
}

// plan cuts the n epochs into the segments the boundaries anchor or, with
// none, into runs of stride epochs (stride 0: one run) — at least one, so
// that a recording of no epochs still has its final hash checked.
func plan(bs []*epoch.Boundary, stride, n int) ([]segment, error) {
	if len(bs) == 0 {
		if stride < 1 {
			stride = max(n, 1)
		}
		var segs []segment
		for lo := 0; lo == 0 || lo < n; lo += stride {
			segs = append(segs, segment{lo: lo, hi: min(lo+stride, n)})
		}
		return segs, nil
	}
	if stride > 0 {
		return nil, errors.New("replay: Stride is for plans without Boundaries")
	}
	if bs[0].Index != 0 {
		return nil, fmt.Errorf("replay: boundaries must start at epoch 0, not %d", bs[0].Index)
	}
	var segs []segment
	for k, b := range bs {
		end := n
		if k+1 < len(bs) {
			end = bs[k+1].Index
		}
		if b.Index > end || end > n {
			return nil, fmt.Errorf("replay: boundary %d covers invalid range [%d,%d) of %d epochs", k, b.Index, end, n)
		}
		if b.Index < end {
			segs = append(segs, segment{start: b, lo: b.Index, hi: end})
		}
	}
	return segs, nil
}

// replayer holds what every segment of one replay shares.
type replayer struct {
	ctx   context.Context
	prog  *vm.Program
	src   Source
	costs *vm.CostModel
	// sequential marks the boundary-less plan, whose epoch spans also
	// report the epoch's syscall count.
	sequential bool
	// loopInstrs sums Stepper.LoopRetired over every epoch of every segment.
	loopInstrs atomic.Uint64
}

func newReplayer(ctx context.Context, prog *vm.Program, src Source, costs *vm.CostModel) *replayer {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	return &replayer{ctx: ctx, prog: prog, src: src, costs: costs}
}

// canceled reports the context's error once it is done; a nil context
// never cancels. Replay checks it before restoring a segment's checkpoint
// and before each epoch, mirroring the recorder's cancellation points
// (core.Options.Context).
func (r *replayer) canceled(pos int) error {
	if r.ctx == nil {
		return nil
	}
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("replay: canceled at epoch %d: %w", pos, err)
	}
	return nil
}

// segment replays sg's epochs back to back on one machine — m, the
// previous segment's, when sg has no checkpoint and m is non-nil —
// verifying each epoch's recorded start hash on the way in (its Stepper
// verifies the end) and, when sg reaches the end of the source, the
// recording's final hash. It returns the summed epoch costs and the
// machine in sg's end state. gp, when non-nil, profiles a machine the
// segment starts; an enabled out receives one "replay.epoch" span per
// epoch, timestamped from the segment's start on (pid, 0), with the
// epoch's timeslices nested inside; atStart, when non-nil, sees the
// machine at each verified epoch start.
func (r *replayer) segment(sg segment, m *vm.Machine, gp *profile.Profiler, out *trace.Sink, pid int64,
	atStart func(m *vm.Machine, ep *dplog.EpochLog, cycles int64)) (cycles int64, _ *vm.Machine, err error) {
	if err := r.canceled(sg.lo); err != nil {
		return 0, nil, err
	}
	switch {
	case sg.start != nil:
		m = sg.start.CP.Restore(r.prog, nil, r.costs)
	case m == nil:
		m = vm.NewMachine(r.prog, nil, r.costs)
	default:
		gp = nil // m continues, and gp already follows it
	}
	if gp != nil {
		gp.Attach(m)
	}
	// One timeslice buffer serves every epoch: emptied before each, and
	// spliced into out after.
	var slices *trace.Sink
	if out.Enabled() {
		slices = trace.NewSink()
	}
	buf := epochBufs.Get().(*dplog.EpochLog)
	defer epochBufs.Put(buf)
	for pos := sg.lo; pos < sg.hi; pos++ {
		if err := r.canceled(pos); err != nil {
			return 0, nil, err
		}
		ep, err := r.src.EpochAt(pos, buf)
		if err != nil {
			return 0, nil, err
		}
		if h := m.StateHash(); h != ep.StartHash {
			return 0, nil, fmt.Errorf("replay: epoch %d: start state hash %016x != recorded %016x",
				ep.Index, h, ep.StartHash)
		}
		if atStart != nil {
			atStart(m, ep, cycles)
		}
		slices.Reset()
		c, loop, err := runEpoch(m, ep, r.src.Quantum(), r.costs, slices)
		if err != nil {
			return 0, nil, err
		}
		r.loopInstrs.Add(loop)
		if slices != nil {
			args := []trace.Arg{trace.Int("epoch", ep.Index), trace.Int("slices", len(ep.Schedule)),
				trace.Int("syscalls", len(ep.Syscalls))}
			if !r.sequential {
				args = args[:2]
			}
			out.Span("replay.epoch", cycles, c, pid, 0, args)
			out.Splice(slices, cycles, pid, 0)
		}
		cycles += c
	}
	if sg.hi == r.src.NumEpochs() {
		if h, want := m.StateHash(), r.src.FinalHash(); h != want {
			return 0, nil, fmt.Errorf("replay: final hash %016x != recorded %016x", h, want)
		}
	}
	return cycles, m, nil
}

// epochBufs are the EpochLogs segments decode a reader's sections into.
// A segment holds one from its first epoch to its last, and the machine's
// syscall handler and signal hook point into it until the next Follow —
// no later than the next epoch the machine replays, which a segment
// starts only after taking a buffer of its own. Pooling across segments,
// not only across one segment's epochs, is what makes the reuse pay:
// a stride-4 segment decodes just four epochs.
var epochBufs = sync.Pool{New: func() any { return new(dplog.EpochLog) }}

// runEpoch replays one epoch on m, which must hold its start state, at
// batch speed and returns its modelled cost and how many of its
// instructions retired in the scheduler's slice loop. A non-nil buf
// receives the epoch's timeslices with epoch-local timestamps.
func runEpoch(m *vm.Machine, ep *dplog.EpochLog, quantum int64, costs *vm.CostModel, buf *trace.Sink) (cycles int64, loop uint64, err error) {
	st, err := NewStepper(m, ep, quantum, costs)
	if err != nil {
		return 0, 0, err
	}
	st.uni.Trace = buf
	cycles, err = st.Run()
	return cycles, st.LoopRetired(), err
}

// Run replays src against prog under the plan opt describes and verifies
// every epoch boundary hash and the recording's final hash. Segments
// fetch their epochs one at a time, so over a seekable log reader each
// decodes only its own sections, concurrently with the others. The
// context is checked before each segment's checkpoint restore and before
// each epoch; a canceled or expired one ends the replay with its error
// wrapped. A nil context never cancels.
func Run(ctx context.Context, prog *vm.Program, src Source, opt Options) (*Result, error) {
	r := newReplayer(ctx, prog, src, opt.Costs)
	r.sequential = len(opt.Boundaries) == 0 && opt.Stride < 1
	n := src.NumEpochs()
	segs, err := plan(opt.Boundaries, opt.Stride, n)
	if err != nil {
		return nil, err
	}
	cpus := max(opt.CPUs, 1)
	sink, tracing := opt.Trace, opt.Trace.Enabled()
	var pid int64
	if tracing && r.sequential {
		pid = sink.AllocPid("replay " + src.Program() + " (sequential)")
		sink.NameThread(pid, 0, "epochs")
	}

	durs := make([]int64, len(segs))
	errs := make([]error, len(segs))
	bufs := make([]*trace.Sink, len(segs))
	profs := make([]*profile.Profile, len(segs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cpus)
	// Each goroutine replays one chain: a segment and the checkpoint-less
	// segments after it, which continue on its machine under its profiler.
	for lo := 0; lo < len(segs); {
		hi := lo + 1
		for hi < len(segs) && segs[hi].start == nil {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var gp *profile.Profiler
			if opt.Profile != nil {
				gp = profile.New(prog)
			}
			// The dp.phase=replay pprof label attributes the work in host
			// CPU profiles; it is free when none is active.
			profile.WithPhase(ctx, "replay", func() {
				var m *vm.Machine
				for i := lo; i < hi; i++ {
					// The single sequential segment streams straight into
					// the sink; a packed segment's position is only known
					// after the fan-out.
					out := sink
					if tracing && !r.sequential {
						bufs[i] = trace.NewSink()
						out = bufs[i]
					}
					if durs[i], m, errs[i] = r.segment(segs[i], m, gp, out, pid, nil); errs[i] != nil {
						return
					}
				}
				if gp != nil {
					profs[lo] = gp.Snapshot()
				}
				m.Mem.Release()
			})
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, p := range profs {
		opt.Profile.Merge(p)
	}

	slots, wall := pack(durs, cpus)
	if tracing && !r.sequential {
		// The vocabulary follows the plan's shape, not a caller-set mode:
		// one epoch per segment is epoch-parallel replay.
		label, wrap := " (epoch-parallel)", false
		for _, sg := range segs {
			if sg.hi-sg.lo > 1 {
				label, wrap = " (sparse segments)", true
			}
		}
		pid := sink.AllocPid("replay " + src.Program() + label)
		for c := 0; c < cpus; c++ {
			sink.NameThread(pid, int64(c), fmt.Sprintf("core %d", c))
		}
		for i, sg := range segs {
			s := slots[i]
			if wrap {
				sink.Span("replay.segment", s.start, s.fin-s.start, pid, int64(s.core),
					[]trace.Arg{trace.Int("start_epoch", sg.lo), trace.Int("epochs", sg.hi-sg.lo)})
			}
			sink.Splice(bufs[i], s.start, pid, int64(s.core))
		}
	}
	return &Result{Cycles: wall, FinalHash: src.FinalHash(), Epochs: n, LoopInstrs: r.loopInstrs.Load()}, nil
}

// packSlot is one duration's placement in the greedy packing.
type packSlot struct {
	core       int
	start, fin int64
}

// pack places durations greedily onto cpus cores in index order, returning
// each placement and the makespan.
func pack(durs []int64, cpus int) ([]packSlot, int64) {
	free := make([]int64, cpus)
	slots := make([]packSlot, len(durs))
	var wall int64
	for i, d := range durs {
		c := 0
		for j := 1; j < cpus; j++ {
			if free[j] < free[c] {
				c = j
			}
		}
		slots[i] = packSlot{core: c, start: free[c], fin: free[c] + d}
		free[c] += d
		if free[c] > wall {
			wall = free[c]
		}
	}
	return slots, wall
}

// CheckpointsFrom reconstructs the epoch-start boundaries of a recording
// by replaying it as one sequential segment and capturing a machine
// checkpoint at each verified epoch start. It returns NumEpochs+1
// boundaries (one per epoch start plus the final state), valid input for
// [Options.Boundaries] whole or thinned with [Thin].
//
// This is what lets a recording artifact loaded from disk be replayed in
// parallel: the original recording process held the checkpoints in
// memory, but a stored dplog carries only the logs, and one sequential
// pass rebuilds the rest. The boundaries' World is nil — replay injects
// recorded syscall results and never consults a simulated OS.
func CheckpointsFrom(ctx context.Context, prog *vm.Program, src Source, costs *vm.CostModel) ([]*epoch.Boundary, error) {
	n := src.NumEpochs()
	out := make([]*epoch.Boundary, 0, n+1)
	cycles, m, err := newReplayer(ctx, prog, src, costs).segment(segment{hi: n}, nil, nil, nil, 0,
		func(m *vm.Machine, ep *dplog.EpochLog, cycles int64) {
			out = append(out, epoch.Snapshot(ep.Index, cycles, m, ep.StartHash))
		})
	if err != nil {
		return nil, err
	}
	out = append(out, epoch.Snapshot(n, cycles, m, src.FinalHash()))
	m.Mem.Release()
	return out, nil
}

// Thin returns the boundaries whose epoch index is a multiple of stride,
// always keeping the last, of the live checkpoints (core.Result.Boundaries)
// or of the set [CheckpointsFrom] reconstructs, for memory-bounded sparse
// replay. It selects by index, so a set already thinned by stride, as
// core.Options.KeepBoundaries keeps it, comes back unchanged.
func Thin(bs []*epoch.Boundary, stride int) []*epoch.Boundary {
	if stride <= 1 {
		return bs
	}
	var out []*epoch.Boundary
	for i, b := range bs {
		if b.Index%stride == 0 || i == len(bs)-1 {
			out = append(out, b)
		}
	}
	return out
}
