// Where a replay reads its log from, and the entry points kept for the
// frozen benchmark.

package replay

import (
	"context"
	"fmt"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// Source abstracts where a replay reads its per-epoch logs from: a
// decoded *dplog.Recording (free access) or a *dplog.Reader (per-section
// decode on demand, which is what the sectioned v6 log format exists
// for — concurrent segments decode their own sections concurrently, and
// a single-epoch replay touches exactly one). Epochs are addressed by
// position in recording order; for a full log, position and epoch id
// coincide. Every replay plan — and the debug session built on top of
// this package — runs against this one interface, so "which bytes back
// the log" can never change what a replay computes.
//
// EpochAt returns epoch i. A source that decodes — the reader — decodes
// into buf when it is non-nil and returns buf, which then holds epoch i
// only until the next decode into it; a nil buf gets a fresh EpochLog the
// caller may keep. A decoded recording ignores buf and returns its own
// epoch, which the caller must not modify.
type Source interface {
	NumEpochs() int
	EpochAt(i int, buf *dplog.EpochLog) (*dplog.EpochLog, error)
	Program() string
	Quantum() int64
	FinalHash() uint64
}

// FromRecording adapts a fully decoded recording as a Source.
func FromRecording(rec *dplog.Recording) Source { return recSource{rec} }

// FromReader adapts a seekable log reader as a Source.
func FromReader(rd *dplog.Reader) Source { return readerSource{rd} }

// recSource adapts a fully decoded recording.
type recSource struct{ rec *dplog.Recording }

func (s recSource) NumEpochs() int { return len(s.rec.Epochs) }
func (s recSource) EpochAt(i int, _ *dplog.EpochLog) (*dplog.EpochLog, error) {
	return s.rec.Epochs[i], nil
}
func (s recSource) Program() string   { return s.rec.Program }
func (s recSource) Quantum() int64    { return s.rec.Quantum }
func (s recSource) FinalHash() uint64 { return s.rec.FinalHash }

// readerSource adapts a seekable log reader. dplog.Reader is safe for
// concurrent use, so segment workers can decode their sections in
// parallel.
type readerSource struct{ rd *dplog.Reader }

func (s readerSource) NumEpochs() int { return s.rd.NumSections() }
func (s readerSource) EpochAt(i int, buf *dplog.EpochLog) (*dplog.EpochLog, error) {
	if buf == nil {
		buf = new(dplog.EpochLog)
	}
	return buf, s.rd.DecodeAt(i, buf)
}
func (s readerSource) Program() string   { return s.rd.Header().Program }
func (s readerSource) Quantum() int64    { return s.rd.Header().Quantum }
func (s readerSource) FinalHash() uint64 { return s.rd.Header().FinalHash }

// The functions below — with FromRecording, FromReader, CheckpointsFrom
// and Thin — are the names benchmark/ calls. That directory is frozen so
// that parent and change are measured by the same program, so they keep
// their signatures as adapters; new code calls Run, CheckpointsFrom and
// NewStepper directly.

// Sequential is Run with no boundaries over a decoded recording.
func Sequential(prog *vm.Program, rec *dplog.Recording, costs *vm.CostModel, sink *trace.Sink) (*Result, error) {
	return Run(context.TODO(), prog, recSource{rec}, Options{Costs: costs, Trace: sink})
}

// SequentialReader is Run with no boundaries over a seekable log.
func SequentialReader(ctx context.Context, prog *vm.Program, rd *dplog.Reader, costs *vm.CostModel, sink *trace.Sink) (*Result, error) {
	return Run(ctx, prog, readerSource{rd}, Options{Costs: costs, Trace: sink})
}

// ParallelSparseReader is Run from a thinned boundary set over a
// seekable log.
func ParallelSparseReader(ctx context.Context, prog *vm.Program, rd *dplog.Reader, sparse []*epoch.Boundary, cpus int, costs *vm.CostModel, sink *trace.Sink) (*Result, error) {
	return Run(ctx, prog, readerSource{rd}, Options{Boundaries: sparse, CPUs: cpus, Costs: costs, Trace: sink})
}

// CheckpointsReader is CheckpointsFrom over a seekable log.
func CheckpointsReader(ctx context.Context, prog *vm.Program, rd *dplog.Reader, costs *vm.CostModel) ([]*epoch.Boundary, error) {
	return CheckpointsFrom(ctx, prog, readerSource{rd}, costs)
}

// OneEpoch replays a single epoch from its start boundary and verifies
// its recorded end hash. Combined with dplog.Reader.Seek (or the serve
// API's epoch-range endpoint), this is O(epoch) work for O(epoch) data:
// nothing before or after the requested epoch is decoded or executed.
func OneEpoch(prog *vm.Program, b *epoch.Boundary, ep *dplog.EpochLog, quantum int64, costs *vm.CostModel) (*Result, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	if b.Hash != ep.StartHash {
		return nil, fmt.Errorf("replay: epoch %d: checkpoint hash %016x != recorded start %016x",
			ep.Index, b.Hash, ep.StartHash)
	}
	m := b.CP.Restore(prog, nil, costs)
	c, loop, err := runEpoch(m, ep, quantum, costs, nil)
	if err != nil {
		return nil, err
	}
	h := m.StateHash()
	m.Mem.Release()
	return &Result{Cycles: c, FinalHash: h, Epochs: 1, LoopInstrs: loop}, nil
}
