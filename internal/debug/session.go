// Package debug is the time-travel debugger built on deterministic
// replay: because a recording pins every scheduling decision, syscall
// result, and signal delivery, any point of the execution is reachable —
// and re-reachable, bit-identically — as "epoch-start checkpoint + k
// single-stepped instructions". A Session owns that arithmetic: it
// materializes epoch checkpoints lazily from a replay.Source (decoded
// recording or seekable dplog reader, the debugger cannot tell which),
// steps forward at guest-instruction granularity, and implements reverse
// execution as seek-to-nearest-prior-checkpoint plus bounded re-execute,
// the scheme rr popularized. Data watchpoints ride the vm.Hooks.OnMemWrite
// hook; divergence forensics between two recordings live in diff.go.
package debug

import (
	"context"
	"errors"
	"fmt"

	"doubleplay/internal/epoch"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
)

// ErrAtStart reports a reverse motion attempted at the very first
// instruction of the recording.
var ErrAtStart = errors.New("debug: already at the start of the recording")

// ErrAtEnd reports a forward motion attempted past the recording's end.
var ErrAtEnd = errors.New("debug: already at the end of the recording")

// ErrNoEpoch reports an epoch boundary the recording does not have.
var ErrNoEpoch = errors.New("debug: no such epoch")

// Position is a point between instructions: Step instructions have
// retired inside epoch Epoch. The end of epoch e and the start of epoch
// e+1 are the same state; positions are normalized to the latter, so
// every machine state of the replayed execution has exactly one
// Position and positions order totally. The recording's end is
// (NumEpochs, 0).
type Position struct {
	Epoch int    `json:"epoch"`
	Step  uint64 `json:"step"`
}

// Before reports strict ordering.
func (p Position) Before(q Position) bool {
	return p.Epoch < q.Epoch || (p.Epoch == q.Epoch && p.Step < q.Step)
}

func (p Position) String() string { return fmt.Sprintf("epoch %d step %d", p.Epoch, p.Step) }

// Hit is one watchpoint trigger: the instruction that retired at PC on
// thread Tid changed the watched word at Addr from Old to New. Pos is
// the stop point — the position just after that instruction, where the
// session halts.
type Hit struct {
	Pos  Position `json:"pos"`
	Tid  int      `json:"tid"`
	PC   int      `json:"pc"`
	Addr vm.Word  `json:"addr"`
	Old  vm.Word  `json:"old"`
	New  vm.Word  `json:"new"`
}

// Session is a time-travel debugging session over one recording. It is
// not safe for concurrent use. All motion commands leave the session at
// a well-defined Position with a live machine to inspect; any error from
// the replay layer (hash mismatch, schedule divergence) is a debug
// assertion failure — the recording and program disagree — and poisons
// the session.
type Session struct {
	prog    *vm.Program
	src     replay.Source
	costs   *vm.CostModel
	quantum int64
	n       int // epochs in the recording
	ctx     context.Context

	// bounds[i] is the verified start boundary of epoch i (bounds[n] the
	// final state); grown lazily, always a prefix.
	bounds []*epoch.Boundary

	m       *vm.Machine
	stepper *replay.Stepper // nil exactly when pos.Epoch == n
	pos     Position

	watches   map[vm.Word]bool
	recording bool // watch hits are being collected into hits
	hits      []Hit
	resolver  *profile.StackResolver
}

// New opens a session positioned at the start of the recording. prog
// must be the program the recording was made from; the mismatch is
// detected immediately against the first epoch's start hash.
func New(prog *vm.Program, src replay.Source, costs *vm.CostModel) (*Session, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	s := &Session{
		prog:     prog,
		src:      src,
		costs:    costs,
		quantum:  src.Quantum(),
		n:        src.NumEpochs(),
		watches:  make(map[vm.Word]bool),
		resolver: profile.NewStackResolver(prog),
	}
	m := vm.NewMachine(prog, nil, costs)
	h := m.StateHash()
	if s.n > 0 {
		ep, err := src.EpochAt(0, nil)
		if err != nil {
			return nil, err
		}
		if h != ep.StartHash {
			return nil, fmt.Errorf("debug: program state %016x does not match recording's first epoch start %016x — wrong program or parameters", h, ep.StartHash)
		}
	}
	s.bounds = []*epoch.Boundary{epoch.Snapshot(0, 0, m, h)}
	m.Mem.Release()
	return s, s.restoreAt(0)
}

// SetContext installs a cancellation context consulted during long
// re-execution (materialize, seek, continue); a nil context never
// cancels.
func (s *Session) SetContext(ctx context.Context) { s.ctx = ctx }

func (s *Session) canceled() error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("debug: canceled at %s: %w", s.pos, err)
	}
	return nil
}

// NumEpochs returns the recording's epoch count.
func (s *Session) NumEpochs() int { return s.n }

// Program returns the recording's program name.
func (s *Session) Program() string { return s.src.Program() }

// Position returns the current stop point.
func (s *Session) Position() Position { return s.pos }

// AtEnd reports whether the session sits at the recording's final state.
func (s *Session) AtEnd() bool { return s.pos.Epoch >= s.n }

// Cycles returns the modelled cycle clock at the current position:
// the epoch boundary's committed cycle count plus the stepped-so-far
// cost inside the current epoch.
func (s *Session) Cycles() int64 {
	c := s.bounds[s.pos.Epoch].Cycle
	if s.stepper != nil {
		c += s.stepper.Cycles()
	}
	return c
}

// StateHash returns the architectural hash of the current state.
func (s *Session) StateHash() uint64 { return s.m.StateHash() }

// BoundaryHash returns the recorded state hash at boundary i (the state
// before epoch i; i == NumEpochs is the final state). This reads the
// log only — no execution — so it is identical however the recording is
// replayed.
func (s *Session) BoundaryHash(i int) (uint64, error) {
	switch {
	case i < 0 || i > s.n:
		return 0, fmt.Errorf("debug: boundary %d out of range 0..%d", i, s.n)
	case i == s.n:
		return s.src.FinalHash(), nil
	default:
		ep, err := s.src.EpochAt(i, nil)
		if err != nil {
			return 0, err
		}
		return ep.StartHash, nil
	}
}

// Threads returns the live machine's threads for inspection. Mutating
// them corrupts the session.
func (s *Session) Threads() []*vm.Thread { return s.m.Threads }

// Thread returns thread tid, or nil.
func (s *Session) Thread(tid int) *vm.Thread { return s.m.Thread(tid) }

// ReadMemory returns n words of guest memory at addr, without touching
// the machine's access statistics.
func (s *Session) ReadMemory(addr vm.Word, n int) []vm.Word {
	out := make([]vm.Word, n)
	for i := range out {
		out[i] = s.m.Mem.Peek(addr + vm.Word(i))
	}
	return out
}

// Stack returns thread tid's guest call stack, outermost frame first,
// using the profiler's shadow-stack reconstruction.
func (s *Session) Stack(tid int) ([]string, error) {
	t := s.m.Thread(tid)
	if t == nil {
		return nil, fmt.Errorf("debug: no thread %d", tid)
	}
	return s.resolver.Stack(t), nil
}

// FuncName names the function containing pc.
func (s *Session) FuncName(pc int) string { return s.resolver.FuncName(pc) }

// NextTid reports the thread the schedule will run next, when known.
func (s *Session) NextTid() (int, bool) {
	if s.stepper == nil {
		return 0, false
	}
	return s.stepper.NextTid()
}

// AddWatch arms a data watchpoint on the guest word at addr.
func (s *Session) AddWatch(addr vm.Word) { s.watches[addr] = true }

// RemoveWatch disarms a watchpoint; it reports whether one was armed.
func (s *Session) RemoveWatch(addr vm.Word) bool {
	ok := s.watches[addr]
	delete(s.watches, addr)
	return ok
}

// Watches returns the armed watchpoint addresses in ascending order.
func (s *Session) Watches() []vm.Word {
	out := make([]vm.Word, 0, len(s.watches))
	for a := range s.watches {
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// LastHits returns the watch hits of the most recent stop (nil when the
// last motion stopped for another reason).
func (s *Session) LastHits() []Hit { return s.hits }

// attachWatch installs the watchpoint hook on m. The hook observes
// every guest memory write (data, atomic, and syscall) and hands hit a
// Hit (Pos unset) when an armed word actually changes.
func (s *Session) attachWatch(m *vm.Machine, hit func(Hit)) {
	m.Hooks.OnMemWrite = func(tid int, addr, old, val vm.Word) {
		if old == val || !s.watches[addr] {
			return
		}
		hit(Hit{Tid: tid, PC: m.Threads[tid].PC, Addr: addr, Old: old, New: val})
	}
}

// materialize grows the boundary prefix through index upTo by restoring
// the last known boundary and replaying whole epochs at full speed —
// the same Stepper the session steps with, drained instead of stepped,
// which is also the pass replay.CheckpointsFrom makes; done
// incrementally and cached for the life of the session.
func (s *Session) materialize(upTo int) error {
	if upTo > s.n {
		return fmt.Errorf("debug: epoch %d out of range 0..%d", upTo, s.n)
	}
	for len(s.bounds) <= upTo {
		if err := s.canceled(); err != nil {
			return err
		}
		e := len(s.bounds) - 1
		ep, err := s.src.EpochAt(e, nil)
		if err != nil {
			return err
		}
		if s.bounds[e].Hash != ep.StartHash {
			return fmt.Errorf("debug: epoch %d checkpoint hash %016x != recorded start %016x",
				e, s.bounds[e].Hash, ep.StartHash)
		}
		m := s.bounds[e].CP.Restore(s.prog, nil, s.costs)
		st, err := replay.NewStepper(m, ep, s.quantum, s.costs)
		if err != nil {
			return err
		}
		c, err := st.Run()
		if err != nil {
			return err
		}
		s.bounds = append(s.bounds, epoch.Snapshot(e+1, s.bounds[e].Cycle+c, m, ep.EndHash))
		m.Mem.Release()
	}
	return nil
}

// restoreAt rebuilds the live machine at boundary e (which must be
// materialized), releasing the one it replaces, and arms it for stepping
// through epoch e.
func (s *Session) restoreAt(e int) error {
	if s.m != nil {
		s.m.Mem.Release()
	}
	s.m = s.bounds[e].CP.Restore(s.prog, nil, s.costs)
	s.attachWatch(s.m, func(h Hit) {
		if s.recording {
			s.hits = append(s.hits, h)
		}
	})
	if err := s.enter(e); err != nil {
		return err
	}
	// An epoch with nothing to retire is already complete; normalize
	// forward so the position stays canonical.
	for s.stepper != nil && s.stepper.Done() {
		if err := s.advanceEpoch(); err != nil {
			return err
		}
	}
	return nil
}

// enter puts the session at the start of epoch e — the state the live
// machine must already hold — with a Stepper for it, or none at the
// recording's end.
func (s *Session) enter(e int) error {
	s.pos = Position{Epoch: e}
	s.stepper = nil
	if e == s.n {
		return nil
	}
	ep, err := s.src.EpochAt(e, nil)
	if err != nil {
		return err
	}
	s.stepper, err = replay.NewStepper(s.m, ep, s.quantum, s.costs)
	return err
}

// advanceEpoch moves the session from the end of epoch pos.Epoch to the
// start of the next one, capturing the boundary checkpoint from the
// live machine if this is the first time the session has reached it.
func (s *Session) advanceEpoch() error {
	e := s.pos.Epoch
	if len(s.bounds) == e+1 {
		s.bounds = append(s.bounds,
			epoch.Snapshot(e+1, s.bounds[e].Cycle+s.stepper.Cycles(), s.m, s.stepper.Epoch().EndHash))
	}
	return s.enter(e + 1)
}

// Step retires exactly one guest instruction and returns what retired.
// Watch hits produced by the instruction are in LastHits afterwards.
func (s *Session) Step() (replay.StepEvent, error) {
	if s.stepper == nil {
		return replay.StepEvent{}, ErrAtEnd
	}
	s.hits = s.hits[:0]
	s.recording = true
	ev, err := s.stepper.Step()
	s.recording = false
	if err != nil {
		return ev, err
	}
	s.pos.Step++
	for s.stepper != nil && s.stepper.Done() {
		if err := s.advanceEpoch(); err != nil {
			return ev, err
		}
	}
	for i := range s.hits {
		s.hits[i].Pos = s.pos
	}
	return ev, nil
}

// StepOver is Step that, when the next instruction is a call, keeps
// executing until the calling thread returns to its current frame depth
// — other threads interleave exactly as the recording says. It stops
// early on a watch hit or at the recording's end.
func (s *Session) StepOver() (replay.StepEvent, error) {
	tid, ok := s.NextTid()
	if !ok {
		return s.Step()
	}
	t := s.m.Thread(tid)
	isCall := t != nil && t.PC >= 0 && t.PC < len(s.prog.Code) && s.prog.Code[t.PC].Op == vm.OpCall
	d0 := len(t.Frames)
	ev, err := s.Step()
	if err != nil || !isCall {
		return ev, err
	}
	for s.stepper != nil && len(s.hits) == 0 && !(ev.Tid == tid && len(t.Frames) <= d0) {
		if err := s.canceled(); err != nil {
			return ev, err
		}
		if ev, err = s.Step(); err != nil {
			return ev, err
		}
	}
	return ev, nil
}

// seek repositions the session at p without recording watch hits:
// restore the nearest prior checkpoint and re-execute. Positioning
// never triggers watchpoints — only Continue-family motion does.
func (s *Session) seek(p Position) error {
	if err := s.materialize(p.Epoch); err != nil {
		return err
	}
	if err := s.restoreAt(p.Epoch); err != nil {
		return err
	}
	for i := uint64(0); i < p.Step; i++ {
		if i%4096 == 0 {
			if err := s.canceled(); err != nil {
				return err
			}
		}
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	s.hits = s.hits[:0]
	return nil
}

// RunToEpoch positions the session at the start of epoch e (e ==
// NumEpochs is the final state). Watchpoints do not fire during
// positioning.
func (s *Session) RunToEpoch(e int) error {
	if e < 0 || e > s.n {
		return fmt.Errorf("%w: %d is out of range 0..%d", ErrNoEpoch, e, s.n)
	}
	return s.seek(Position{Epoch: e})
}

// RunToCycle positions the session at the first stop point whose cycle
// clock is >= c (or the recording's end). Watchpoints do not fire
// during positioning.
func (s *Session) RunToCycle(c int64) error {
	// Materialize boundaries forward until one passes c, then step
	// within the preceding epoch.
	e := 0
	for e < s.n {
		if err := s.materialize(e + 1); err != nil {
			return err
		}
		if s.bounds[e+1].Cycle > c {
			break
		}
		e++
	}
	if err := s.seek(Position{Epoch: e}); err != nil {
		return err
	}
	for s.stepper != nil && s.Cycles() < c {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	s.hits = s.hits[:0]
	return nil
}

// totalSteps returns how many instructions retire inside epoch e:
// the recorded targets minus the boundary's already-retired counts.
func (s *Session) totalSteps(e int) (uint64, error) {
	if err := s.materialize(e); err != nil {
		return 0, err
	}
	ep, err := s.src.EpochAt(e, nil)
	if err != nil {
		return 0, err
	}
	var tot uint64
	for _, w := range ep.Targets {
		tot += w
	}
	for _, t := range s.bounds[e].CP.Threads {
		tot -= t.Retired
	}
	return tot, nil
}

// ReverseStep moves one instruction backwards: restore the epoch's
// start checkpoint and re-execute all but the last step. Deterministic
// replay makes this exact — the state reached is bit-identical to the
// one the forward execution passed through.
func (s *Session) ReverseStep() error {
	p := s.pos
	if p.Step > 0 {
		return s.seek(Position{Epoch: p.Epoch, Step: p.Step - 1})
	}
	for e := p.Epoch - 1; e >= 0; e-- {
		tot, err := s.totalSteps(e)
		if err != nil {
			return err
		}
		if tot > 0 {
			return s.seek(Position{Epoch: e, Step: tot - 1})
		}
	}
	return ErrAtStart
}

// Continue runs forward until a watched word changes, returning the
// hits of the stopping instruction, or nil when the recording ends
// first.
func (s *Session) Continue() ([]Hit, error) {
	for s.stepper != nil {
		if err := s.canceled(); err != nil {
			return nil, err
		}
		if _, err := s.Step(); err != nil {
			return nil, err
		}
		if len(s.hits) > 0 {
			return s.hits, nil
		}
	}
	return nil, nil
}

// ScanEpoch replays epoch e from its boundary on a scratch machine and
// returns every watch hit inside it, with stop-point positions. The
// session's own position is untouched. This is the epoch-local scan
// reverse-continue builds on; because each epoch scans independently
// from its checkpoint, the hit list for an epoch is the same whether
// the epochs are walked sequentially or in parallel.
func (s *Session) ScanEpoch(e int) ([]Hit, error) {
	if e < 0 || e >= s.n {
		return nil, fmt.Errorf("debug: epoch %d out of range 0..%d", e, s.n-1)
	}
	if err := s.materialize(e); err != nil {
		return nil, err
	}
	ep, err := s.src.EpochAt(e, nil)
	if err != nil {
		return nil, err
	}
	mm := s.bounds[e].CP.Restore(s.prog, nil, s.costs)
	defer mm.Mem.Release()
	var hits []Hit
	var pending int
	s.attachWatch(mm, func(h Hit) {
		hits = append(hits, h)
		pending++
	})
	st, err := replay.NewStepper(mm, ep, s.quantum, s.costs)
	if err != nil {
		return nil, err
	}
	tot, err := s.totalSteps(e)
	if err != nil {
		return nil, err
	}
	for k := uint64(0); !st.Done(); k++ {
		if k%4096 == 0 {
			if err := s.canceled(); err != nil {
				return nil, err
			}
		}
		if _, err := st.Step(); err != nil {
			return nil, err
		}
		for ; pending > 0; pending-- {
			p := Position{Epoch: e, Step: k + 1}
			if k+1 == tot {
				p = Position{Epoch: e + 1}
			}
			hits[len(hits)-pending].Pos = p
		}
	}
	return hits, nil
}

// ReverseContinue runs backwards until a watched word changes: the
// session stops at the latest watch stop point strictly before the
// current position, or at the recording's start when there is none. It
// returns the hits of the stopping instruction (nil at the start).
func (s *Session) ReverseContinue() ([]Hit, error) {
	cur := s.pos
	e := cur.Epoch
	if e >= s.n {
		e = s.n - 1
	}
	for ; e >= 0; e-- {
		hits, err := s.ScanEpoch(e)
		if err != nil {
			return nil, err
		}
		best := -1
		for i, h := range hits {
			if h.Pos.Before(cur) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		stop := hits[best].Pos
		var at []Hit
		for _, h := range hits {
			if h.Pos == stop {
				at = append(at, h)
			}
		}
		if err := s.seek(stop); err != nil {
			return nil, err
		}
		s.hits = append(s.hits[:0], at...)
		return at, nil
	}
	if err := s.seek(Position{}); err != nil {
		return nil, err
	}
	return nil, nil
}
