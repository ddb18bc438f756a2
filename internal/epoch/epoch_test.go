package epoch_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// gates returns a gate built fresh from order, and one that held and
// half-consumed an unrelated epoch's order on the same objects and more,
// then was reset to order, as a slot's gate is from epoch to epoch.
func gates(order []dplog.SyncRecord) map[string]*epoch.Gate {
	used := epoch.NewGate([]dplog.SyncRecord{
		{Tid: 0, Kind: vm.ObjLock, ID: 7},
		{Tid: 3, Kind: vm.ObjAtomic, ID: 100},
		{Tid: 3, Kind: vm.ObjLock, ID: 8},
		{Tid: 1, Kind: vm.ObjLock, ID: 7},
	})
	used.OnSync(vm.SyncEvent{Tid: 0, Obj: vm.SyncObj{Kind: vm.ObjLock, ID: 7}, Kind: vm.SyncAcquire})
	used.OnSync(vm.SyncEvent{Tid: 2, Obj: vm.SyncObj{Kind: vm.ObjLock, ID: 8}, Kind: vm.SyncAcquire})
	used.Reset(order)
	return map[string]*epoch.Gate{"fresh": epoch.NewGate(order), "reset": used}
}

func TestGateEnforcesRecordedOrder(t *testing.T) {
	for name, g := range gates([]dplog.SyncRecord{
		{Tid: 1, Kind: vm.ObjLock, ID: 7},
		{Tid: 0, Kind: vm.ObjLock, ID: 7},
		{Tid: 2, Kind: vm.ObjAtomic, ID: 100},
	}) {
		t.Run(name, func(t *testing.T) { gateEnforcesRecordedOrder(t, g) })
	}
}

func gateEnforcesRecordedOrder(t *testing.T, g *epoch.Gate) {
	lock := vm.SyncObj{Kind: vm.ObjLock, ID: 7}
	atom := vm.SyncObj{Kind: vm.ObjAtomic, ID: 100}
	// Lock 8 is in the reset gate's earlier order only; its head there
	// would name this order's third record, tid 2's.
	if g.MayAcquire(vm.SyncObj{Kind: vm.ObjLock, ID: 8}, 2) {
		t.Fatal("an object with no recorded operation allows acquires")
	}
	if g.MayAcquire(lock, 0) {
		t.Fatal("tid 0 allowed ahead of tid 1")
	}
	if !g.MayAcquire(lock, 1) {
		t.Fatal("tid 1 refused its own turn")
	}
	// Objects are independent: the atomic's head is available immediately.
	if !g.MayAcquire(atom, 2) {
		t.Fatal("atomic gated behind an unrelated lock")
	}
	g.OnSync(vm.SyncEvent{Tid: 1, Obj: lock, Kind: vm.SyncAcquire})
	if !g.MayAcquire(lock, 0) {
		t.Fatal("tid 0 refused after tid 1 went")
	}
	g.OnSync(vm.SyncEvent{Tid: 0, Obj: lock, Kind: vm.SyncAcquire})
	g.OnSync(vm.SyncEvent{Tid: 2, Obj: atom, Kind: vm.SyncAtomic})
	if g.Remaining() != 0 || g.Used() != 3 {
		t.Fatalf("remaining=%d used=%d", g.Remaining(), g.Used())
	}
	// An unrecorded operation is never allowed.
	if g.MayAcquire(lock, 1) {
		t.Fatal("exhausted queue still allows acquires")
	}
	// Ungated events pass through without consuming anything.
	g.OnSync(vm.SyncEvent{Tid: 1, Obj: lock, Kind: vm.SyncRelease})
	if g.Err() != "" {
		t.Fatalf("release consumed gate state: %s", g.Err())
	}
}

func TestGateRecordsViolationWhenUnenforced(t *testing.T) {
	lock := vm.SyncObj{Kind: vm.ObjLock, ID: 7}
	for name, g := range gates([]dplog.SyncRecord{{Tid: 1, Kind: vm.ObjLock, ID: 7}}) {
		// Simulates the ablation: the event fires without MayAcquire approval.
		g.OnSync(vm.SyncEvent{Tid: 0, Obj: lock, Kind: vm.SyncAcquire})
		if g.Err() == "" || g.Remaining() != 1 {
			t.Fatalf("%s: out-of-order acquire not recorded (err %q, remaining %d)", name, g.Err(), g.Remaining())
		}
	}
}

func TestInjectOSReplaysAndDetectsMismatch(t *testing.T) {
	recs := []dplog.SyscallRecord{
		{Tid: 0, Num: 3, Args: [6]vm.Word{1}, Ret: 42,
			Writes: []vm.MemWrite{{Addr: 10, Data: []vm.Word{7, 8}}}},
		{Tid: 0, Num: 3, Args: [6]vm.Word{2}, Ret: 43},
	}
	inj := epoch.NewInjectOS(recs)
	m := &vm.Machine{} // only the Diverged field is touched

	res := inj.Syscall(m, &vm.Thread{ID: 0}, 3, [6]vm.Word{1})
	if res.Ret != 42 || len(res.Writes) != 1 || m.Diverged != "" {
		t.Fatalf("first injection wrong: %+v (diverged %q)", res, m.Diverged)
	}
	// Arg mismatch on the second call.
	res = inj.Syscall(m, &vm.Thread{ID: 0}, 3, [6]vm.Word{99})
	if !res.Block || m.Diverged == "" {
		t.Fatal("mismatched syscall injected")
	}
	if !strings.Contains(m.Diverged, "mismatch") {
		t.Fatalf("diverged = %q", m.Diverged)
	}
}

func TestInjectOSExtraSyscallDiverges(t *testing.T) {
	inj := epoch.NewInjectOS(nil)
	m := &vm.Machine{}
	res := inj.Syscall(m, &vm.Thread{ID: 1}, 5, [6]vm.Word{})
	if !res.Block || m.Diverged == "" {
		t.Fatal("extra syscall not flagged")
	}
	if inj.Remaining() != 0 {
		t.Fatal("remaining wrong")
	}
}

// buildEpochProgram constructs a two-worker locked-counter program and its
// world.
func buildEpochProgram(iters int) *vm.Program {
	b := asm.NewBuilder("ep")
	cell := b.Words(0)
	w := b.Func("worker", 1)
	{
		lk, base, v, i := w.Const(2), w.Const(cell), w.Reg(), w.Reg()
		w.Movi(i, 0)
		w.ForLtImm(i, vm.Word(iters), func() {
			w.LockR(lk)
			w.Ld(v, base, 0)
			w.Addi(v, v, 1)
			w.St(base, 0, v)
			w.UnlockR(lk)
			w.Sys(simos.SysTime)
		})
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	{
		t1, t2, a := m.Reg(), m.Reg(), m.Reg()
		m.Movi(a, 0)
		m.Spawn(t1, "worker", a)
		m.Spawn(t2, "worker", a)
		m.Join(t1)
		m.Join(t2)
		m.HaltImm(0)
	}
	b.SetEntry("main")
	return b.MustBuild()
}

// recordOneEpoch runs the thread-parallel pass for a while and returns the
// pieces an epoch run needs.
func recordOneEpoch(t *testing.T, prog *vm.Program, until int64) (*epoch.Boundary, *epoch.Boundary, []dplog.SyncRecord, []dplog.SyscallRecord) {
	t.Helper()
	bs, eps := recordEpochs(t, prog, until)
	return bs[0], bs[1], eps[0].SyncOrder, eps[0].Syscalls
}

// recordEpochs runs the thread-parallel pass up to each of ends in turn
// and returns the boundaries there, the first at cycle 0, and each
// epoch's log with its targets.
func recordEpochs(t *testing.T, prog *vm.Program, ends ...int64) ([]*epoch.Boundary, []*dplog.EpochLog) {
	t.Helper()
	world := simos.NewWorld(1)
	live := epoch.NewLiveLog(nil, 0)
	m := vm.NewMachine(prog, nil, nil)
	live.Attach(m, world)
	par := sched.NewParallel(m, 2, 1)
	bs := []*epoch.Boundary{epoch.Capture(0, 0, m, world)}
	var eps []*dplog.EpochLog
	for _, until := range ends {
		if err := par.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		bs = append(bs, epoch.Capture(len(bs), par.Now(), m, world))
		ep := live.Take()
		ep.Targets = bs[len(bs)-1].Targets()
		eps = append(eps, ep)
	}
	return bs, eps
}

func TestRunEpochMatchesThreadParallelState(t *testing.T) {
	prog := buildEpochProgram(300)
	start, end, sync, sys := recordOneEpoch(t, prog, 8000)

	res, err := epoch.Run(epoch.RunSpec{
		Prog:      prog,
		Start:     start,
		Targets:   end.Targets(),
		SyncOrder: sync,
		Syscalls:  sys,
		Costs:     vm.DefaultCosts(),
	})
	if err != nil {
		t.Fatalf("epoch run: %v", err)
	}
	if res.EndHash != end.Hash {
		t.Fatalf("race-free epoch diverged: %016x vs %016x", res.EndHash, end.Hash)
	}
	if len(res.Schedule) == 0 {
		t.Fatal("no schedule produced")
	}
	if res.Injected != len(sys) {
		t.Fatalf("injected %d of %d syscalls", res.Injected, len(sys))
	}
	if res.Enforced != len(sync) {
		t.Fatalf("enforced %d of %d sync ops", res.Enforced, len(sync))
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles accounted")
	}
}

func TestRunEpochDetectsMissingSyncOps(t *testing.T) {
	prog := buildEpochProgram(300)
	start, end, sync, sys := recordOneEpoch(t, prog, 8000)

	// Append a phantom recorded acquire that the execution will never
	// perform: the run must be declared divergent.
	phantom := append(append([]dplog.SyncRecord(nil), sync...),
		dplog.SyncRecord{Tid: 1, Kind: vm.ObjLock, ID: 999})
	_, err := epoch.Run(epoch.RunSpec{
		Prog:      prog,
		Start:     start,
		Targets:   end.Targets(),
		SyncOrder: phantom,
		Syscalls:  sys,
		Costs:     vm.DefaultCosts(),
	})
	if err == nil || !epoch.IsDivergence(err) {
		t.Fatalf("err = %v, want divergence", err)
	}
}

func TestBoundaryTargets(t *testing.T) {
	prog := buildEpochProgram(50)
	start, end, _, _ := recordOneEpoch(t, prog, 3000)
	if got := start.Targets(); len(got) == 0 || got[0] != 0 {
		t.Fatalf("start targets = %v", got)
	}
	sum := uint64(0)
	for _, v := range end.Targets() {
		sum += v
	}
	if sum == 0 {
		t.Fatal("end targets empty")
	}
	if start.Hash == end.Hash {
		t.Fatal("progress did not change the state hash")
	}
}

// TestLeftoverIsADivergence feeds Run an epoch whose log holds one thing
// more than the execution consumes — in each of the three streams, and a
// thread more than ran — and checks the end-of-epoch proof reports each as
// a divergence. (internal/replay's TestLeftoverIsACertViolation holds the
// certified replay side to the same four.)
func TestLeftoverIsADivergence(t *testing.T) {
	prog := buildEpochProgram(300)
	start, end, sync, sys := recordOneEpoch(t, prog, 8000)
	for _, tc := range []struct {
		name, want string
		corrupt    func(*epoch.RunSpec)
	}{
		{"clean", "", func(*epoch.RunSpec) {}},
		{"sync op", "1 recorded sync ops never performed", func(s *epoch.RunSpec) {
			s.SyncOrder = append(s.SyncOrder[:len(sync):len(sync)], dplog.SyncRecord{Tid: 1, Kind: vm.ObjLock, ID: 999})
		}},
		{"syscall", "1 recorded syscalls never issued", func(s *epoch.RunSpec) {
			s.Syscalls = append(s.Syscalls[:len(sys):len(sys)], dplog.SyscallRecord{Tid: 9, Num: simos.SysTime})
		}},
		{"signal", "1 recorded signals never delivered", func(s *epoch.RunSpec) {
			s.Signals = []dplog.SignalRecord{{Tid: 1, Retired: 1 << 40, Sig: 9}}
		}},
		{"thread", "thread count 3 differs from recorded 4", func(s *epoch.RunSpec) {
			s.Targets = append(s.Targets, 0)
		}},
	} {
		spec := epoch.RunSpec{
			Prog: prog, Start: start, Targets: end.Targets(),
			SyncOrder: sync, Syscalls: sys, Costs: vm.DefaultCosts(),
		}
		tc.corrupt(&spec)
		_, err := epoch.Run(spec)
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("clean epoch: %v", err)
		case tc.want != "" && (!epoch.IsDivergence(err) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("leftover %s: err = %v, want a divergence saying %q", tc.name, err, tc.want)
		}
	}
}

// TestSlotRunsLikeAFreshSlot runs a sequence of different epochs on one
// slot, whose machine, schedule scratch and gate carry over from run to
// run, and holds each result to a fresh slot's: the schedule, the counts,
// the end hash, and the error — the leftover proof's, and the gate's own
// under DisableEnforcement.
func TestSlotRunsLikeAFreshSlot(t *testing.T) {
	prog := buildEpochProgram(300)
	bs, eps := recordEpochs(t, prog, 6000, 12000)
	spec := func(k int, unenforced bool) epoch.RunSpec {
		return epoch.RunSpec{Prog: prog, Start: bs[k], Targets: eps[k].Targets, SyncOrder: eps[k].SyncOrder,
			Syscalls: eps[k].Syscalls, Costs: vm.DefaultCosts(), DisableEnforcement: unenforced}
	}
	phantom := spec(1, false)
	phantom.SyncOrder = append(phantom.SyncOrder[:len(phantom.SyncOrder):len(phantom.SyncOrder)],
		dplog.SyncRecord{Tid: 1, Kind: vm.ObjLock, ID: 999})
	gateErrs := 0
	slot := new(epoch.Slot)
	for i, sp := range []epoch.RunSpec{spec(0, false), spec(1, false), phantom, spec(0, true), spec(1, true), spec(0, false)} {
		fresh := new(epoch.Slot)
		got, gotErr := slot.Run(sp)
		want, wantErr := fresh.Run(sp)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || slot.GateErr() != fresh.GateErr() {
			t.Fatalf("run %d: err %v, gate %q; a fresh slot's %v, %q", i, gotErr, slot.GateErr(), wantErr, fresh.GateErr())
		}
		if slot.GateErr() != "" {
			gateErrs++
		}
		if !slices.Equal(got.Schedule, want.Schedule) || len(got.Schedule) == 0 {
			t.Fatalf("run %d: schedule %v, a fresh slot's %v", i, got.Schedule, want.Schedule)
		}
		if got.Enforced != want.Enforced || got.Injected != want.Injected ||
			got.Cycles != want.Cycles || got.EndHash != want.EndHash {
			t.Fatalf("run %d: %+v, a fresh slot's %+v", i, got, want)
		}
	}
	if gateErrs == 0 {
		t.Fatal("no unenforced run broke the recorded order; the gate error went untested")
	}
}

// TestKeptLogsAreCopies: the schedule a slot's run returns, and the
// streams LiveLog.Take hands over, are copies at their exact length out
// of scratch the next epoch reuses, so a later epoch overwrites none of
// them and an append to one reaches no other epoch's.
func TestKeptLogsAreCopies(t *testing.T) {
	prog := buildEpochProgram(300)
	bs, eps := recordEpochs(t, prog, 6000, 12000)
	_, clean := recordEpochs(t, prog, 6000, 12000)
	for _, ep := range eps {
		if len(ep.SyncOrder) == 0 || cap(ep.SyncOrder) != len(ep.SyncOrder) || cap(ep.Syscalls) != len(ep.Syscalls) {
			t.Fatalf("streams of %d sync ops, %d syscalls not at their exact length", len(ep.SyncOrder), len(ep.Syscalls))
		}
	}
	_ = append(eps[0].SyncOrder, dplog.SyncRecord{Tid: 9, Kind: vm.ObjLock, ID: 999})
	for k := range eps {
		if !slices.Equal(eps[k].SyncOrder, clean[k].SyncOrder) {
			t.Fatalf("epoch %d's taken sync order differs from a clean recording's", k)
		}
	}

	slot := new(epoch.Slot)
	run := func(slot *epoch.Slot, k int) *epoch.RunResult {
		res, err := slot.Run(epoch.RunSpec{Prog: prog, Start: bs[k], Targets: eps[k].Targets,
			SyncOrder: eps[k].SyncOrder, Syscalls: eps[k].Syscalls, Costs: vm.DefaultCosts()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(slot, 0)
	kept := slices.Clone(first.Schedule)
	if cap(first.Schedule) != len(first.Schedule) {
		t.Fatalf("schedule of %d slices has cap %d", len(first.Schedule), cap(first.Schedule))
	}
	second := run(slot, 1)
	_ = append(first.Schedule, dplog.Slice{Tid: 9, N: 1})
	if !slices.Equal(first.Schedule, kept) {
		t.Fatal("the next epoch's run overwrote a returned schedule")
	}
	if fresh := run(new(epoch.Slot), 1); !slices.Equal(second.Schedule, fresh.Schedule) {
		t.Fatal("an append to one returned schedule reached the next epoch's")
	}
}

// TestWarmSlotRunAllocations pins what a warm slot allocates per epoch.
// Of what the epoch keeps, that is the RunResult and the schedule's copy;
// the rest is the Exec that follows the epoch and its scheduler, the
// gate's two hook values, and the injector's per-thread cursors grown for
// tids 1 and 2 (three appends). The machine, the schedule scratch and the
// gate's links and heads are the slot's own and cost nothing once warm.
func TestWarmSlotRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	prog := buildEpochProgram(300)
	bs, eps := recordEpochs(t, prog, 6000, 12000)
	// The second epoch: the first spawns the guest's threads.
	spec := epoch.RunSpec{Prog: prog, Start: bs[1], Targets: eps[1].Targets,
		SyncOrder: eps[1].SyncOrder, Syscalls: eps[1].Syscalls, Costs: vm.DefaultCosts()}
	slot := new(epoch.Slot)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := slot.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2+7 {
		t.Fatalf("a warm slot's run allocates %v times, want 9", allocs)
	}
}
