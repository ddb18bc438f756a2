package guestgen_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// wraps, in issue order.
type tape struct {
	live    vm.SyscallHandler
	results []vm.SysResult
}

func (p *tape) Syscall(m *vm.Machine, t *vm.Thread, num vm.Word, args [6]vm.Word) vm.SysResult {
	res := p.live.Syscall(m, t, num, args)
	p.results = append(p.results, res)
	return res
}

// outcome is everything two executions of one program must agree on.
type outcome struct {
	Err      string
	Cycles   int64
	Switches int64
	Log      []dplog.Slice
	Threads  []*vm.Thread // PC, Regs, Frames, Retired, Status, fault text, …
	Hash     uint64
	// Signals is where a live run delivered each signal. A delivery
	// without a handler changes no state but the thread's counts, so its
	// position within a stretch of plain instructions shows only here.
	Signals []dplog.SignalRecord
}

// runUni drives u to completion in Advance(n) chunks drawn from chunks
// (nil: one Run) and reports the outcome. reference forces the
// per-instruction path by arming a no-op OnRetire; otherwise the slice
// loop is in play and must have been used.
func runUni(t *testing.T, u *sched.Uni, chunks *rand.Rand, reference bool) outcome {
	t.Helper()
	m := u.M
	if reference {
		m.Hooks.OnRetire = func(*vm.Thread, int, int64) {}
	}
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
	return o
}

// signalScript draws 0–4 asynchronous signals for g's threads from the
// fuzz input's seed, each due at a cycle a run of g may or may not reach.
// No generated program installs a handler, so a delivery changes no
// program: it retires and costs Sync, which moves every later stop.
func signalScript(g *guestgen.Guest, seed uint64) func() *simos.World {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x51647a1))
	type spec struct {
		at  int64
		tid int
		sig vm.Word
	}
	script := make([]spec, rng.Intn(5))
	for i := range script {
		script[i] = spec{int64(rng.Intn(5000)), rng.Intn(g.Workers + 1), vm.Word(1 + rng.Intn(9))}
	}
	slices.SortFunc(script, func(a, b spec) int { return cmp.Compare(a.at, b.at) })
	return func() *simos.World {
		w := g.World()
		for _, s := range script {
			w.AddSignal(s.at, s.tid, s.sig)
		}
		return w
	}
}

func diff(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("%s: err %q/%q cycles %d/%d switches %d/%d slices %d/%d hash %016x/%016x signals %v/%v", what,
		got.Err, want.Err, got.Cycles, want.Cycles, got.Switches, want.Switches,
		len(got.Log), len(want.Log), got.Hash, want.Hash, got.Signals, want.Signals)
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

// checked is what the differential oracle saw of one generated guest.
type checked struct {
	g *guestgen.Guest
	// faulted: one of its threads faulted in the reference run.
	faulted bool
	// signals delivered in the reference run.
	signals int
	// recordedFaults: for a disciplined guest, which it records, how many
	// threads its recording ended with faulted.
	recordedFaults int
}

// check is the differential oracle over one generated guest, under a
// world that scripts signals drawn from seed.
func check(t *testing.T, data []byte, seed uint64) (c checked) {
	g := guestgen.Generate(data)
	c.g = g
	world := signalScript(g, seed)
	rng := rand.New(rand.NewSource(int64(seed)))
	quantum := int64(1 + rng.Intn(400))

	// Logging mode against the live world, whose signals fall due at a
	// clock: the reference, the loop in one Run, and the loop under random
	// pauses. The reference run's log is what replay mode follows.
	free := func() (*sched.Uni, *epoch.LiveLog) {
		m, l := vm.NewMachine(g.Prog, nil, nil), epoch.NewLiveLog(nil, 0)
		l.Attach(m, world())
		m.Hooks.OnSync = nil
		u := sched.NewUni(m)
		u.Quantum, u.LogSchedule, u.Signals = quantum, true, l.Signals()
		return u, l
	}
	ref, live := free()
	want := runUni(t, ref, nil, true)
	if want.Err != "" {
		t.Fatalf("generated guest does not run to completion: %s", want.Err)
	}
	ep := live.Take()
	want.Signals = ep.Signals
	for _, chunks := range []*rand.Rand{nil, rng} {
		u, l := free()
		got := runUni(t, u, chunks, false)
		got.Signals = l.Take().Signals
		diff(t, fmt.Sprintf("free mode, quantum %d, chunked %v", quantum, chunks != nil), got, want)
		if u.LoopRetired == 0 || u.LoopRetired > u.Retired() {
			t.Fatalf("free mode: %d of %d instructions in the slice loop", u.LoopRetired, u.Retired())
		}
	}

	for _, th := range want.Threads {
		c.faulted = c.faulted || th.Status == vm.Faulted
	}
	c.signals = len(ep.Signals)

	// Replay mode: the logged schedule followed with the logged syscall
	// results and signals, which fall due at a retired count, reference
	// against loop, whole and paused. A fault retires, so a slice and a
	// target that count it end the thread there.
	ep.Schedule = ref.Log
	ep.Targets = make([]uint64, len(want.Threads))
	for i, th := range want.Threads {
		ep.Targets[i] = th.Retired
	}
	follow := func() *sched.Uni { return epoch.Follow(vm.NewMachine(g.Prog, nil, nil), ep, false, 0, nil).Uni }
	wantF := runUni(t, follow(), nil, true)
	if wantF.Err != "" || wantF.Hash != want.Hash {
		t.Fatalf("followed reference: err %q, hash %016x, logged run %016x", wantF.Err, wantF.Hash, want.Hash)
	}
	for _, chunks := range []*rand.Rand{nil, rng} {
		got := runUni(t, follow(), chunks, false)
		diff(t, fmt.Sprintf("follow mode, chunked %v", chunks != nil), got, wantF)
	}

	if !g.Disciplined {
		return c
	}
	// Race-free by construction: the recorder must never see a divergence,
	// and every way of replaying the log must reproduce every boundary
	// hash and the final hash (replay.Run and the Stepper check them).
	res, err := core.Record(g.Prog, world(), core.Options{
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
	c.recordedFaults = res.Stats.GuestFaults
	return c
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

// FuzzSliceLoop points the determinism oracle at generated programs under
// worlds that script signals: the slice loop against the per-instruction
// reference under sched.Uni, and, for lock-disciplined programs, record
// against every replay.
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
	var racy, faults, signaled, recorded, recordedFaulting int
	for i := 0; i < n; i++ {
		data := binary.LittleEndian.AppendUint64(nil, uint64(i)*0x9e3779b97f4a7c15+1)
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			c := check(t, data, uint64(i))
			if c.faulted {
				faults++
			}
			if c.signals > 0 {
				signaled++
			}
			if !c.g.Disciplined {
				racy++
				return
			}
			recorded++
			if c.recordedFaults > 0 {
				recordedFaulting++
			}
		})
	}
	// The generator must keep producing both kinds of program and both
	// kinds of ending, some run must take a signal, and some recording
	// must hold a fault, or the oracle is looking at less than it claims.
	msg := fmt.Sprintf("of %d guests: %d faulted, %d took a signal, %d racy, %d recorded and replayed (%d of them with a fault)",
		n, faults, signaled, racy, recorded, recordedFaulting)
	if racy == 0 || faults == 0 || signaled == 0 || recorded < n/4 || recordedFaulting == 0 {
		t.Fatal(msg)
	}
	t.Log(msg)
}
