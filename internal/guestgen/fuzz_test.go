package guestgen_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/guestgen"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// tape is a syscall handler that records the results of the handler it
// wraps, in issue order, or plays a recorded tape back. One simulated CPU
// following one schedule issues its syscalls in one order, so a flat tape
// is all a followed Uni needs to see the inputs the logged run saw.
type tape struct {
	live    vm.SyscallHandler // nil: play back
	results []vm.SysResult
	next    int
}

func (p *tape) Syscall(m *vm.Machine, t *vm.Thread, num vm.Word, args [6]vm.Word) vm.SysResult {
	if p.live != nil {
		res := p.live.Syscall(m, t, num, args)
		p.results = append(p.results, res)
		return res
	}
	if p.next >= len(p.results) {
		m.Diverged = "tape exhausted"
		return vm.SysResult{Block: true}
	}
	p.next++
	return p.results[p.next-1]
}

// outcome is everything two executions of one program must agree on.
type outcome struct {
	Err      string
	Cycles   int64
	Switches int64
	Log      []dplog.Slice
	Threads  []*vm.Thread // PC, Regs, Frames, Retired, Status, fault text, …
	Hash     uint64
}

// runUni drives a Uni over m to completion in Advance(n) chunks drawn from
// chunks (nil: one Run) and reports the outcome. reference forces the
// per-instruction path by arming a no-op OnRetire; otherwise the slice
// loop is in play and must have been used.
func runUni(t *testing.T, m *vm.Machine, cfg func(u *sched.Uni), chunks *rand.Rand, reference bool) (outcome, *sched.Uni) {
	t.Helper()
	if reference {
		m.Hooks.OnRetire = func(*vm.Thread, int, int64) {}
	}
	u := sched.NewUni(m)
	cfg(u)
	var err error
	for done := false; !done && err == nil; {
		n := uint64(math.MaxUint64)
		if chunks != nil {
			n = uint64(chunks.Intn(300))
		}
		before := u.Retired()
		done, err = u.Advance(n)
		if got := u.Retired() - before; got > n {
			t.Fatalf("Advance(%d) retired %d", n, got)
		}
	}
	if reference && u.LoopRetired != 0 {
		t.Fatalf("reference run retired %d instructions in the slice loop", u.LoopRetired)
	}
	o := outcome{Cycles: u.Cycles, Switches: u.Switches, Log: u.Log, Threads: m.Threads, Hash: m.StateHash()}
	if err != nil {
		o.Err = err.Error()
	}
	return o, u
}

func diff(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("%s: err %q/%q cycles %d/%d switches %d/%d slices %d/%d hash %016x/%016x", what,
		got.Err, want.Err, got.Cycles, want.Cycles, got.Switches, want.Switches,
		len(got.Log), len(want.Log), got.Hash, want.Hash)
	diffThreads(t, got.Threads, want.Threads)
	t.FailNow()
}

// diffThreads reports the threads two executions left in different states.
func diffThreads(t *testing.T, got, want []*vm.Thread) {
	t.Helper()
	for i := range want {
		if i < len(got) && !reflect.DeepEqual(got[i], want[i]) {
			g, w := got[i], want[i]
			t.Errorf("  thread %d: pc %d/%d retired %d/%d status %s/%s fault %q/%q frames %d/%d regs equal %v",
				i, g.PC, w.PC, g.Retired, w.Retired, g.Status, w.Status, g.Fault, w.Fault,
				len(g.Frames), len(w.Frames), g.Regs == w.Regs)
		}
	}
}

// check is the differential oracle over one generated guest. It returns
// the guest, whether one of its threads faulted in the reference run and,
// for a disciplined guest, which it records, how many threads its
// recording ended with faulted.
func check(t *testing.T, data []byte, seed uint64) (g *guestgen.Guest, faulted bool, recordedFaults int) {
	g = guestgen.Generate(data)
	rng := rand.New(rand.NewSource(int64(seed)))
	quantum := int64(1 + rng.Intn(400))

	// Logging mode against the live OS: the reference, the loop in one
	// Run, and the loop under random pauses.
	free := func(u *sched.Uni) { u.Quantum, u.LogSchedule = quantum, true }
	rec := &tape{live: simos.NewOS(g.World())}
	want, ref := runUni(t, vm.NewMachine(g.Prog, rec, nil), free, nil, true)
	if want.Err != "" {
		t.Fatalf("generated guest does not run to completion: %s", want.Err)
	}
	for _, chunks := range []*rand.Rand{nil, rng} {
		got, u := runUni(t, vm.NewMachine(g.Prog, simos.NewOS(g.World()), nil), free, chunks, false)
		diff(t, fmt.Sprintf("free mode, quantum %d, chunked %v", quantum, chunks != nil), got, want)
		if u.LoopRetired == 0 || u.LoopRetired > u.Retired() {
			t.Fatalf("free mode: %d of %d instructions in the slice loop", u.LoopRetired, u.Retired())
		}
	}

	for _, th := range want.Threads {
		faulted = faulted || th.Status == vm.Faulted
	}

	// Replay mode: the logged schedule followed with the logged syscall
	// results, reference against loop, whole and paused. A fault retires,
	// so a slice and a target that count it end the thread there.
	targets := make([]uint64, len(want.Threads))
	for i, th := range want.Threads {
		targets[i] = th.Retired
	}
	follow := func(u *sched.Uni) { u.Follow, u.Targets = ref.Log, targets }
	wantF, _ := runUni(t, vm.NewMachine(g.Prog, &tape{results: rec.results}, nil), follow, nil, true)
	if wantF.Err != "" || wantF.Hash != want.Hash {
		t.Fatalf("followed reference: err %q, hash %016x, logged run %016x", wantF.Err, wantF.Hash, want.Hash)
	}
	for _, chunks := range []*rand.Rand{nil, rng} {
		got, _ := runUni(t, vm.NewMachine(g.Prog, &tape{results: rec.results}, nil), follow, chunks, false)
		diff(t, fmt.Sprintf("follow mode, chunked %v", chunks != nil), got, wantF)
	}

	if !g.Disciplined {
		return g, faulted, 0
	}
	// Race-free by construction: the recorder must never see a divergence,
	// and every way of replaying the log must reproduce every boundary
	// hash and the final hash (replay.Run and the Stepper check them).
	res, err := core.Record(g.Prog, g.World(), core.Options{
		Workers: g.Workers, SpareCPUs: 2, Seed: int64(seed), EpochCycles: int64(500 + rng.Intn(8000)), Quantum: quantum,
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if res.Stats.Divergences != 0 {
		t.Fatalf("disciplined guest recorded with %d divergences: %+v", res.Stats.Divergences, res.Divergences)
	}
	rd, err := dplog.OpenReaderBytes(dplog.MarshalBytes(res.Recording))
	if err != nil {
		t.Fatal(err)
	}
	for sname, src := range map[string]replay.Source{"recording": replay.FromRecording(res.Recording), "reader": replay.FromReader(rd)} {
		for pname, bs := range map[string][]*epoch.Boundary{"sequential": nil, "epoch-parallel": res.Boundaries, "sparse": replay.Thin(res.Boundaries, 2)} {
			rep, err := replay.Run(context.Background(), g.Prog, src, replay.Options{Boundaries: bs, CPUs: 2})
			if err != nil {
				t.Fatalf("%s replay of %s: %v", pname, sname, err)
			}
			if rep.FinalHash != res.FinalHash {
				t.Fatalf("%s replay of %s: final hash %016x, recorded %016x", pname, sname, rep.FinalHash, res.FinalHash)
			}
		}
		// A stored log carries no checkpoints: the plan a stride prices
		// from one pass must be the plan replayed from the checkpoints a
		// first pass rebuilds, result, trace and profile alike.
		stride := 1 + int(seed%4)
		all, err := replay.CheckpointsFrom(context.Background(), g.Prog, src, nil)
		if err != nil {
			t.Fatalf("checkpoints of %s: %v", sname, err)
		}
		want, wantTr, wantProf := replayTraced(t, g.Prog, src, replay.Options{Boundaries: replay.Thin(all, stride), CPUs: 2})
		got, gotTr, gotProf := replayTraced(t, g.Prog, src, replay.Options{Stride: stride, CPUs: 2})
		if *got != *want || !bytes.Equal(gotTr, wantTr) || !bytes.Equal(gotProf, wantProf) {
			t.Fatalf("stride-%d plan of %s: result %+v, trace equal %v, profile equal %v; from checkpoints %+v",
				stride, sname, *got, bytes.Equal(gotTr, wantTr), bytes.Equal(gotProf, wantProf), *want)
		}
	}
	m := vm.NewMachine(g.Prog, nil, nil)
	for _, ep := range res.Recording.Epochs {
		st, err := replay.NewStepper(m, ep, res.Recording.Quantum, nil)
		if err != nil {
			t.Fatalf("stepped replay: %v", err)
		}
		for !st.Done() {
			if _, err := st.Step(); err != nil {
				t.Fatalf("stepped replay: %v", err)
			}
		}
	}
	if h := m.StateHash(); h != res.FinalHash {
		t.Fatalf("stepped replay: final hash %016x, recorded %016x", h, res.FinalHash)
	}
	return g, faulted, res.Stats.GuestFaults
}

// replayTraced replays src under opt with a trace and a guest profile and
// returns the result with the trace and profile bytes.
func replayTraced(t *testing.T, prog *vm.Program, src replay.Source, opt replay.Options) (*replay.Result, []byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewStreamSink(&buf, 0)
	opt.Trace, opt.Profile = sink, profile.NewProfile("")
	rep, err := replay.Run(context.Background(), prog, src, opt)
	if err == nil {
		err = sink.Close()
	}
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return rep, buf.Bytes(), opt.Profile.MarshalPprof()
}

// FuzzSliceLoop points the determinism oracle at generated programs: the
// slice loop against the per-instruction reference under sched.Uni, and,
// for lock-disciplined programs, record against every replay.
func FuzzSliceLoop(f *testing.F) {
	for i := uint64(0); i < 8; i++ {
		f.Add(binary.LittleEndian.AppendUint64(nil, i*0x9e3779b97f4a7c15), i)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) { check(t, data, seed) })
}

// TestGeneratedGuests is FuzzSliceLoop over a fixed range of seeds, so the
// oracle runs in every `go test`.
func TestGeneratedGuests(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 25
	}
	var racy, faults, recorded, recordedFaulting int
	for i := 0; i < n; i++ {
		data := binary.LittleEndian.AppendUint64(nil, uint64(i)*0x9e3779b97f4a7c15+1)
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			g, faulted, recordedFaults := check(t, data, uint64(i))
			if faulted {
				faults++
			}
			if !g.Disciplined {
				racy++
				return
			}
			recorded++
			if recordedFaults > 0 {
				recordedFaulting++
			}
		})
	}
	// The generator must keep producing both kinds of program and both
	// kinds of ending, and some recording must hold a fault, or the oracle
	// is looking at less than it claims.
	msg := fmt.Sprintf("of %d guests: %d faulted, %d racy, %d recorded and replayed (%d of them with a fault)",
		n, faults, racy, recorded, recordedFaulting)
	if racy == 0 || faults == 0 || recorded < n/4 || recordedFaulting == 0 {
		t.Fatal(msg)
	}
	t.Log(msg)
}
