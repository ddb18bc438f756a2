package sched_test

import (
	"reflect"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// TestUniSignalDueAfterSync runs a guest whose plain instructions cost
// nothing, under a live world whose one signal becomes deliverable while
// the guest's lock is charged: the clock passes the signal's time inside
// the sync op, so the signal is due before the plain instructions after
// it. The slice loop must stop there, where the per-instruction path
// delivers it, although a batch of free instructions never moves the
// clock.
func TestUniSignalDueAfterSync(t *testing.T) {
	b := asm.NewBuilder("freeplain")
	mn := b.Func("main", 0)
	lk, i := mn.Const(1), mn.Reg()
	mn.LockR(lk)
	mn.Movi(i, 0)
	mn.ForLtImm(i, 50, func() {})
	mn.UnlockR(lk)
	mn.HaltImm(0)
	b.SetEntry("main")
	prog := b.MustBuild()

	costs := vm.DefaultCosts()
	costs.Instr, costs.Mem, costs.TimesliceSwitch = 0, 0, 0
	run := func(reference bool) (*dplog.EpochLog, uint64, int64) {
		m := vm.NewMachine(prog, nil, costs)
		if reference {
			m.Hooks.OnRetire = func(*vm.Thread, int, int64) {}
		}
		w := simos.NewWorld(1)
		w.AddSignal(costs.Sync/2, 0, 7) // the lock runs from cycle 0 to Sync
		u := sched.NewUni(m)
		ep, err := epoch.NewLiveLog(nil, 0).RunUni(u, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reference && u.LoopRetired == 0 {
			t.Fatal("the slice loop retired nothing")
		}
		return ep, m.StateHash(), u.Cycles
	}
	want, wantHash, wantCycles := run(true)
	got, hash, cycles := run(false)
	if len(want.Signals) != 1 || want.Signals[0].Retired < 2 {
		t.Fatalf("reference delivered %+v, want one signal after the lock", want.Signals)
	}
	if !reflect.DeepEqual(got.Signals, want.Signals) || hash != wantHash || cycles != wantCycles {
		t.Fatalf("slice loop: signals %+v, hash %016x, %d cycles; per instruction: %+v, %016x, %d",
			got.Signals, hash, cycles, want.Signals, wantHash, wantCycles)
	}
}
