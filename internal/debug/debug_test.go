package debug_test

import (
	"fmt"
	"reflect"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/debug"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// record produces a recording of a builtin workload.
func record(t *testing.T, name string, workers int, seed int64) (*workloads.Built, *dplog.Recording) {
	t.Helper()
	wl := workloads.Get(name)
	if wl == nil {
		t.Fatalf("no workload %s", name)
	}
	bt := wl.Build(workloads.Params{Workers: workers, Seed: seed})
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers: workers, SpareCPUs: workers, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.ReleaseCheckpoints()
	return bt, res.Recording
}

// open builds a session over the decoded recording or, via the v6 wire
// bytes, over a seekable reader — the two byte sources a debugger can
// be pointed at.
func open(t *testing.T, bt *workloads.Built, rec *dplog.Recording, viaReader bool) *debug.Session {
	t.Helper()
	src := replay.FromRecording(rec)
	if viaReader {
		rd, err := dplog.OpenReaderBytes(dplog.MarshalBytes(rec))
		if err != nil {
			t.Fatal(err)
		}
		src = replay.FromReader(rd)
	}
	s, err := debug.New(bt.Prog, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// watchAll arms every intentionally racy cell of the workload.
func watchAll(s *debug.Session, bt *workloads.Built) {
	for _, a := range bt.RacyAddrs {
		s.AddWatch(vm.Word(a))
	}
}

// continueAll collects every watch hit from the current position to the
// end of the recording by repeated Continue.
func continueAll(t *testing.T, s *debug.Session) []debug.Hit {
	t.Helper()
	var out []debug.Hit
	for {
		hits, err := s.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if hits == nil {
			return out
		}
		out = append(out, hits...)
	}
}

// scanAll collects the same hits epoch by epoch from independently
// restored checkpoints — the epoch-parallel materialization order.
func scanAll(t *testing.T, s *debug.Session) []debug.Hit {
	t.Helper()
	var out []debug.Hit
	for e := 0; e < s.NumEpochs(); e++ {
		hits, err := s.ScanEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hits...)
	}
	return out
}

// TestWatchpointDeterminism: the watchpoint stop points of a racy
// workload are a property of the recording, not of how the debugger
// materializes state: sequential stepping over the decoded recording,
// sequential stepping over the seekable reader, and independent
// per-epoch scans from restored checkpoints all report the identical
// hit sequence. Covers all racy workloads at both paper thread counts.
func TestWatchpointDeterminism(t *testing.T) {
	for _, name := range []string{"racey", "webserve-racy"} {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%d", name, workers), func(t *testing.T) {
				bt, rec := record(t, name, workers, 17)

				rs := open(t, bt, rec, false) // decoded recording, sequential continue
				watchAll(rs, bt)
				seq := continueAll(t, rs)

				dr := open(t, bt, rec, true) // reader-backed, sequential continue
				watchAll(dr, bt)
				rdr := continueAll(t, dr)

				ps := open(t, bt, rec, true) // reader-backed, epoch-parallel scan order
				watchAll(ps, bt)
				par := scanAll(t, ps)

				if len(seq) == 0 {
					t.Fatalf("racy workload produced no watch hits")
				}
				if !reflect.DeepEqual(seq, rdr) {
					t.Fatalf("reader-backed hits differ from recording-backed:\n%v\nvs\n%v", rdr, seq)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("per-epoch scan hits differ from sequential:\n%v\nvs\n%v", par, seq)
				}
			})
		}
	}
}

// TestReverseStepRoundTrip: reverse-step then step returns to the
// identical position and architectural state, at every watch stop of a
// racy recording.
func TestReverseStepRoundTrip(t *testing.T) {
	bt, rec := record(t, "racey", 2, 17)
	s := open(t, bt, rec, true)
	watchAll(s, bt)
	stops := 0
	for {
		hits, err := s.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if hits == nil {
			break
		}
		stops++
		pos, hash := s.Position(), s.StateHash()
		if err := s.ReverseStep(); err != nil {
			t.Fatalf("reverse-step at %v: %v", pos, err)
		}
		back := s.Position()
		if !back.Before(pos) {
			t.Fatalf("reverse-step did not move back: %v -> %v", pos, back)
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.Position() != pos {
			t.Fatalf("round trip position %v != %v", s.Position(), pos)
		}
		if h := s.StateHash(); h != hash {
			t.Fatalf("round trip state %016x != %016x at %v", h, hash, pos)
		}
		if stops > 24 {
			break // bounded: round-trip cost is quadratic in prefix length
		}
	}
	if stops == 0 {
		t.Fatal("no watch stops reached")
	}
}

// TestReverseStepAcrossEpochs reverse-steps out of every epoch of an
// I/O-heavy recording, twice over, and holds each state reached to a
// forward Stepper's: every seek releases the machine it replaces, every
// materialized epoch and scan its scratch machine, and their pages are
// recycled into the next, so a page still mapped after its release would
// show up as a wrong hash here.
func TestReverseStepAcrossEpochs(t *testing.T) {
	bt, rec := record(t, "kvdb", 2, 17)
	n := len(rec.Epochs)

	// want holds the state one instruction before each epoch ends, at
	// that position, for every epoch that retires any.
	want := map[debug.Position]uint64{}
	m := vm.NewMachine(bt.Prog, nil, nil)
	for e, ep := range rec.Epochs {
		tot := uint64(0)
		for i, target := range ep.Targets {
			tot += target
			if i < len(m.Threads) {
				tot -= m.Threads[i].Retired
			}
		}
		st, err := replay.NewStepper(m, ep, rec.Quantum, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tot > 0 {
			for step := uint64(0); step < tot-1; step++ {
				if _, err := st.Step(); err != nil {
					t.Fatal(err)
				}
			}
			want[debug.Position{Epoch: e, Step: tot - 1}] = m.StateHash()
		}
		if _, err := st.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) < 2 {
		t.Fatalf("only %d of %d epochs retire instructions", len(want), n)
	}

	s := open(t, bt, rec, true)
	for pass := 0; pass < 2; pass++ {
		for e := n; e > 0; e-- {
			if err := s.RunToEpoch(e); err != nil {
				t.Fatal(err)
			}
			if h, err := s.BoundaryHash(e); err != nil || s.StateHash() != h {
				t.Fatalf("pass %d: state at boundary %d %016x, recorded %016x (%v)", pass, e, s.StateHash(), h, err)
			}
			if _, err := s.ScanEpoch(e - 1); err != nil {
				t.Fatal(err)
			}
			if err := s.ReverseStep(); err != nil {
				t.Fatalf("pass %d: reverse-step from boundary %d: %v", pass, e, err)
			}
			pos := s.Position()
			h, ok := want[pos]
			if !ok {
				t.Fatalf("pass %d: reverse-step from boundary %d stopped at %v, not an epoch's last step", pass, e, pos)
			}
			if got := s.StateHash(); got != h {
				t.Fatalf("pass %d: state at %v %016x, forward %016x", pass, pos, got, h)
			}
		}
	}
}

// TestReverseContinue: running backwards from the end visits exactly
// the forward stop points, in reverse order.
func TestReverseContinue(t *testing.T) {
	bt, rec := record(t, "racey", 2, 17)
	s := open(t, bt, rec, true)
	watchAll(s, bt)

	var fwd []debug.Position
	for {
		hits, err := s.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if hits == nil {
			break
		}
		fwd = append(fwd, s.Position())
	}
	if len(fwd) == 0 {
		t.Fatal("no forward stops")
	}

	// s now sits at the end; walk back.
	var rev []debug.Position
	for {
		hits, err := s.ReverseContinue()
		if err != nil {
			t.Fatal(err)
		}
		if hits == nil {
			if got := s.Position(); got != (debug.Position{}) {
				t.Fatalf("reverse-continue past all hits stopped at %v, want start", got)
			}
			break
		}
		rev = append(rev, s.Position())
	}
	if len(rev) != len(fwd) {
		t.Fatalf("reverse visited %d stops, forward %d", len(rev), len(fwd))
	}
	for i := range rev {
		if rev[i] != fwd[len(fwd)-1-i] {
			t.Fatalf("stop %d: reverse %v != forward %v", i, rev[i], fwd[len(fwd)-1-i])
		}
	}
}

// TestStepAndInspect exercises positioning and state inspection:
// run-to-epoch, run-to-cycle, step, step-over, registers, memory,
// stacks.
func TestStepAndInspect(t *testing.T) {
	bt, rec := record(t, "fft", 2, 17)
	s := open(t, bt, rec, true)
	n := s.NumEpochs()
	if n < 2 {
		t.Skipf("recording too short (%d epochs)", n)
	}

	if err := s.RunToEpoch(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Position(); got.Epoch != 1 || got.Step != 0 {
		t.Fatalf("run-to-epoch landed at %v", got)
	}
	ev, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if s.FuncName(ev.PC) == "" {
		t.Fatal("unnamed pc")
	}
	stack, err := s.Stack(ev.Tid)
	if err != nil {
		t.Fatal(err)
	}
	if len(stack) == 0 {
		t.Fatal("empty stack for running thread")
	}
	if regs := s.Thread(ev.Tid).Regs; len(regs) != vm.NumRegs {
		t.Fatal("register file wrong size")
	}
	if words := s.ReadMemory(vm.Word(bt.Prog.DataBase), 4); len(words) != 4 {
		t.Fatal("memory read wrong size")
	}

	// Step-over returns to the same frame depth of the stepped thread.
	for i := 0; i < 200 && !s.AtEnd(); i++ {
		tid, ok := s.NextTid()
		if !ok {
			break
		}
		th := s.Thread(tid)
		if th.PC < len(bt.Prog.Code) && bt.Prog.Code[th.PC].Op == vm.OpCall {
			d0 := len(th.Frames)
			if _, err := s.StepOver(); err != nil {
				t.Fatal(err)
			}
			if !s.AtEnd() && len(th.Frames) > d0 {
				t.Fatalf("step-over left thread %d at depth %d, started at %d", tid, len(th.Frames), d0)
			}
			break
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Run-to-cycle positions monotonically and agrees with the clock.
	mid := s.Cycles() + 1000
	if err := s.RunToCycle(mid); err != nil {
		t.Fatal(err)
	}
	if !s.AtEnd() && s.Cycles() < mid {
		t.Fatalf("run-to-cycle stopped at %d, wanted >= %d", s.Cycles(), mid)
	}
}

// TestBisectDeterministic: two recordings of a racy workload under
// different seeds share their initial state and diverge at one
// deterministic epoch — the same answer whether the sessions read
// decoded recordings or seekable logs, and the same bracket invariant
// (previous boundary agrees) every time.
func TestBisectDeterministic(t *testing.T) {
	bta, reca := record(t, "racey", 2, 11)
	btb, recb := record(t, "racey", 2, 12)

	// The two byte sources must give the same answer, diff included.
	var want *debug.BisectResult
	for round, viaReader := range []bool{false, true} {
		sa := open(t, bta, reca, viaReader)
		sb := open(t, btb, recb, viaReader)
		res, err := debug.Bisect(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Diverged {
			t.Fatal("different seeds did not diverge")
		}
		if res.Epoch == 0 {
			t.Fatal("racy recordings must share their initial state")
		}
		if round == 0 {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Fatalf("bisect over reader: %+v\nover recording: %+v", res, want)
		}
		ha, err := sa.BoundaryHash(res.Epoch - 1)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := sb.BoundaryHash(res.Epoch - 1)
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Fatalf("bracket broken: boundary %d differs", res.Epoch-1)
		}
		if res.Diff == nil || res.Diff.Equal {
			t.Fatal("divergent bisect carries no state diff")
		}
		if res.Diff.WordsDiffer == 0 && len(res.Diff.Threads) == 0 {
			t.Fatal("state diff is empty despite hash mismatch")
		}
	}

	// Same recording against itself: no divergence.
	sa := open(t, bta, reca, true)
	sb := open(t, bta, reca, false)
	res, err := debug.Bisect(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("identical recordings reported divergent at %d", res.Epoch)
	}
}
