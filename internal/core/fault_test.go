package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/debug"
	"doubleplay/internal/dplog"
	"doubleplay/internal/guestgen"
	"doubleplay/internal/replay"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// faultingProg spawns a worker that divides by zero after a few thousand
// instructions, while main keeps computing and then halts without joining
// it.
func faultingProg() *vm.Program {
	b := asm.NewBuilder("fault")
	w := b.Func("worker", 1)
	{
		i, acc, zero := w.Reg(), w.Reg(), w.Const(0)
		w.Movi(i, 0)
		w.ForLtImm(i, 1000, func() { w.Addi(acc, acc, 3) })
		w.Div(acc, acc, zero)
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	{
		tid, i, acc, zero := m.Reg(), m.Reg(), m.Reg(), m.Const(0)
		m.Spawn(tid, "worker", zero)
		m.Movi(i, 0)
		m.ForLtImm(i, 20000, func() { m.Addi(acc, acc, 1) })
		m.HaltImm(0)
	}
	b.SetEntry("main")
	return b.MustBuild()
}

// badPrintProg is faultingProg with the division replaced by a print of
// length -1, which the OS refuses with -1: the worker reads that, keeps
// computing and exits with it.
func badPrintProg() *vm.Program {
	b := asm.NewBuilder("badprint")
	w := b.Func("worker", 1)
	{
		i, acc, ret := w.Reg(), w.Reg(), w.Reg()
		w.Movi(i, 0)
		w.ForLtImm(i, 1000, func() { w.Addi(acc, acc, 3) })
		w.Sys(simos.SysPrint, w.Const(asm.DefaultDataBase), w.Const(-1))
		w.Mov(ret, asm.RetReg)
		w.Movi(i, 0)
		w.ForLtImm(i, 1000, func() { w.Addi(acc, acc, 3) })
		w.Halt(ret)
	}
	m := b.Func("main", 0)
	{
		tid, i, acc, zero := m.Reg(), m.Reg(), m.Reg(), m.Const(0)
		m.Spawn(tid, "worker", zero)
		m.Movi(i, 0)
		m.ForLtImm(i, 20000, func() { m.Addi(acc, acc, 1) })
		m.Join(tid)
		m.HaltImm(0)
	}
	b.SetEntry("main")
	return b.MustBuild()
}

// TestRecordsGuestFault records guests whose threads fault, and one whose
// bad syscall returns -1 instead. A fault retires, so a thread's target
// says "and then the thread faulted", and each recording must stand up to
// everything a fault-free one does, under both verification policies: it
// holds the faults a native run takes, every replay plan over both
// sources reproduces every boundary hash, a stepped replay ends every
// epoch Done, and a same-seed re-record is byte-identical. The
// hand-written guest is also stepped to its end in a debugger, one step
// per retired instruction, and stepped back from there.
func TestRecordsGuestFault(t *testing.T) {
	// The analyze corpus's seed 351: both guests certify race-free and fault.
	seed := uint64(351)
	seed351 := binary.LittleEndian.AppendUint64(nil, seed*0x9e3779b97f4a7c15+1)
	newWorld := func() *simos.World { return simos.NewWorld(1) }
	handOpt := Options{Workers: 2, SpareCPUs: 2, EpochCycles: 5000, Seed: 1}
	genOpt := Options{SpareCPUs: 2, Seed: 1, EpochCycles: 2000}
	for _, tc := range []struct {
		name  string
		prog  *vm.Program
		world func() *simos.World
		opt   Options
		// end checks the threads of the final boundary; nil checks nothing.
		end func(ts []*vm.Thread) error
		// cert: the guest certifies race-free, so VerifyCertified commits
		// every epoch unverified. A worker's syscall leaves the
		// certificate incomplete.
		cert, debug bool
	}{
		{"hand-written", faultingProg(), newWorld, handOpt, func(ts []*vm.Thread) error {
			// Neither thread's path depends on the other's, so every
			// schedule ends here: the fault is the worker's 5005th and
			// last retirement.
			if w := ts[1]; w.Status != vm.Faulted || w.PC != 7 || w.Retired != 5005 || w.Fault != "divide by zero" {
				return fmt.Errorf("worker ends %s at pc %d after %d retired (%q); want faulted at pc 7 after 5005: divide by zero",
					w.Status, w.PC, w.Retired, w.Fault)
			}
			return nil
		}, true, true},
		{"bad print", badPrintProg(), newWorld, handOpt, func(ts []*vm.Thread) error {
			if w := ts[1]; w.Status == vm.Faulted || w.ExitVal != -1 {
				return fmt.Errorf("worker ends %s with %d (%q); want an exit with -1", w.Status, w.ExitVal, w.Fault)
			}
			return nil
		}, false, false},
		{"generate 351", guestgen.Generate(seed351).Prog, guestgen.Generate(seed351).World, genOpt, nil, true, false},
		{"generate-racy 351", guestgen.GenerateRacy(seed351).Prog, guestgen.GenerateRacy(seed351).World, genOpt, nil, true, false},
	} {
		native, err := RunNative(tc.prog, tc.world(), 2, 1, nil)
		if err != nil {
			t.Fatalf("%s: native run: %v", tc.name, err)
		}
		for _, spelling := range []string{"always", "certified"} {
			name := tc.name + ", verify " + spelling
			policy, _ := ParseVerifyPolicy(spelling)
			opt := tc.opt
			opt.VerifyPolicy = policy
			res, err := Record(tc.prog, tc.world(), opt)
			if err != nil {
				t.Fatalf("%s: record: %v", name, err)
			}
			st := res.Stats
			if st.GuestFaults != len(native.Faults) {
				t.Fatalf("%s: the recording holds %d guest faults, a native run %d: %v", name, st.GuestFaults, len(native.Faults), native.Faults)
			}
			if policy == VerifyCertified && tc.cert && st.VerifySkipped != st.Epochs {
				t.Fatalf("%s: %d of %d epochs certified (fallback %q)", name, st.VerifySkipped, st.Epochs, st.VerifyFallback)
			}
			if tc.end != nil {
				if err := tc.end(res.Boundaries[len(res.Boundaries)-1].CP.Threads); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			again, err := Record(tc.prog, tc.world(), opt)
			if err != nil || !bytes.Equal(again.Raw, res.Raw) {
				t.Fatalf("%s: a same-seed re-record differs (err %v)", name, err)
			}
			checkFaultReplays(t, name, tc.prog, res)
			if tc.debug {
				checkFaultDebug(t, name, tc.prog, res)
			}
			t.Logf("%s: %d epochs, %d retired, %d guest faults", name, st.Epochs, st.Retired, st.GuestFaults)
		}
	}
}

// checkFaultReplays replays res from the recording and from its encoding:
// the boundaries a sequential pass rebuilds are the recorder's, every plan
// reaches the final state, and a Stepper stepped through each epoch ends
// it Done.
func checkFaultReplays(t *testing.T, name string, prog *vm.Program, res *Result) {
	t.Helper()
	rd, err := dplog.OpenReaderBytes(res.Raw)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ctx := context.Background()
	for sname, src := range map[string]replay.Source{"recording": replay.FromRecording(res.Recording), "reader": replay.FromReader(rd)} {
		rebuilt, err := replay.CheckpointsFrom(ctx, prog, src, nil)
		if err != nil || len(rebuilt) != len(res.Boundaries) {
			t.Fatalf("%s: rebuilding the boundaries from the %s: %d of %d, %v", name, sname, len(rebuilt), len(res.Boundaries), err)
		}
		for i, b := range rebuilt {
			if b.Hash != res.Boundaries[i].Hash {
				t.Fatalf("%s: boundary %d rebuilt from the %s hashes %016x, recorded %016x", name, i, sname, b.Hash, res.Boundaries[i].Hash)
			}
			b.CP.Release()
		}
		for pname, opt := range map[string]replay.Options{
			"sequential":     {},
			"epoch-parallel": {Boundaries: res.Boundaries, CPUs: 2},
			"sparse":         {Boundaries: replay.Thin(res.Boundaries, 2), CPUs: 2},
			"stride":         {Stride: 2, CPUs: 2},
		} {
			rep, err := replay.Run(ctx, prog, src, opt)
			if err != nil || rep.FinalHash != res.FinalHash {
				t.Fatalf("%s: %s replay of the %s: %v (final hash %016x, recorded %016x)", name, pname, sname, err, rep.FinalHash, res.FinalHash)
			}
		}
	}
	m := vm.NewMachine(prog, nil, nil)
	for _, ep := range res.Recording.Epochs {
		st, err := replay.NewStepper(m, ep, res.Recording.Quantum, nil)
		if err != nil {
			t.Fatalf("%s: stepper of epoch %d: %v", name, ep.Index, err)
		}
		for !st.Done() {
			if _, err := st.Step(); err != nil {
				t.Fatalf("%s: stepping epoch %d: %v", name, ep.Index, err)
			}
		}
	}
	if h := m.StateHash(); h != res.FinalHash {
		t.Fatalf("%s: stepped replay ends at %016x, recorded %016x", name, h, res.FinalHash)
	}
}

// checkFaultDebug steps res to its end in a debug session, which takes one
// step per retired instruction and ends with the worker faulted, then
// steps back one instruction and forward again to the same state.
func checkFaultDebug(t *testing.T, name string, prog *vm.Program, res *Result) {
	t.Helper()
	s, err := debug.New(prog, replay.FromRecording(res.Recording), nil)
	if err != nil {
		t.Fatalf("%s: debug session: %v", name, err)
	}
	var steps int64
	for !s.AtEnd() {
		if _, err := s.Step(); err != nil {
			t.Fatalf("%s: debug step %d: %v", name, steps, err)
		}
		steps++
	}
	if steps != res.Stats.Retired || s.Thread(1).Status != vm.Faulted || s.StateHash() != res.FinalHash {
		t.Fatalf("%s: the debugger took %d steps to the end, worker %s, hash %016x; recorded %d retired, final hash %016x",
			name, steps, s.Thread(1).Status, s.StateHash(), res.Stats.Retired, res.FinalHash)
	}
	if _, err := s.Step(); !errors.Is(err, debug.ErrAtEnd) {
		t.Fatalf("%s: a step past the end: %v", name, err)
	}
	if err := s.ReverseStep(); err != nil {
		t.Fatalf("%s: reverse step from the end: %v", name, err)
	}
	if s.AtEnd() {
		t.Fatalf("%s: a reverse step from the end stayed there", name)
	}
	if _, err := s.Step(); err != nil || !s.AtEnd() || s.StateHash() != res.FinalHash {
		t.Fatalf("%s: stepping forward again: %v, at end %v, hash %016x", name, err, s.AtEnd(), s.StateHash())
	}
}
