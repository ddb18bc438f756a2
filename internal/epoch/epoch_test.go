package epoch_test

import (
	"strings"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

func TestGateEnforcesRecordedOrder(t *testing.T) {
	lock := vm.SyncObj{Kind: vm.ObjLock, ID: 7}
	atom := vm.SyncObj{Kind: vm.ObjAtomic, ID: 100}
	g := epoch.NewGate([]dplog.SyncRecord{
		{Tid: 1, Kind: vm.ObjLock, ID: 7},
		{Tid: 0, Kind: vm.ObjLock, ID: 7},
		{Tid: 2, Kind: vm.ObjAtomic, ID: 100},
	})
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
	g := epoch.NewGate([]dplog.SyncRecord{{Tid: 1, Kind: vm.ObjLock, ID: 7}})
	// Simulates the ablation: the event fires without MayAcquire approval.
	g.OnSync(vm.SyncEvent{Tid: 0, Obj: lock, Kind: vm.SyncAcquire})
	if g.Err() == "" {
		t.Fatal("out-of-order acquire not recorded")
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
	world := simos.NewWorld(1)
	live := epoch.NewLiveLog(nil, 0)
	m := vm.NewMachine(prog, nil, nil)
	live.Attach(m, world)
	par := sched.NewParallel(m, 2, 1)
	start := epoch.Capture(0, 0, m, world)
	if err := par.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	end := epoch.Capture(1, par.Now(), m, world)
	ep := live.Take()
	return start, end, ep.SyncOrder, ep.Syscalls
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
