package epoch_test

import (
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/vm"
)

func TestInjectSignalsExactPoints(t *testing.T) {
	inj := epoch.NewInjectSignals([]dplog.SignalRecord{
		{Tid: 1, Retired: 10, Sig: 3},
		{Tid: 1, Retired: 25, Sig: 4},
		{Tid: 2, Retired: 10, Sig: 5},
	})
	if _, ok := take(inj, 1, 9); ok {
		t.Fatal("delivered early")
	}
	sig, ok := take(inj, 1, 10)
	if !ok || sig != 3 {
		t.Fatalf("delivery = (%d,%v), want (3,true)", sig, ok)
	}
	// Not redelivered at the same point.
	if _, ok := take(inj, 1, 10); ok {
		t.Fatal("redelivered")
	}
	if sig, ok := take(inj, 2, 10); !ok || sig != 5 {
		t.Fatal("per-thread queues entangled")
	}
	if inj.Remaining() != 1 || inj.Injected != 2 {
		t.Fatalf("remaining=%d injected=%d", inj.Remaining(), inj.Injected)
	}
}

func TestRunEpochDetectsUndeliverableSignal(t *testing.T) {
	prog := buildEpochProgram(200)
	start, end, sync, sys := recordOneEpoch(t, prog, 6000)
	// A phantom signal pinned past any thread's target can never be
	// delivered: the run must be declared divergent.
	_, err := epoch.Run(epoch.RunSpec{
		Prog:      prog,
		Start:     start,
		Targets:   end.Targets(),
		SyncOrder: sync,
		Syscalls:  sys,
		Signals:   []dplog.SignalRecord{{Tid: 1, Retired: 1 << 40, Sig: 9}},
		Costs:     vm.DefaultCosts(),
	})
	if err == nil || !epoch.IsDivergence(err) {
		t.Fatalf("err = %v, want divergence", err)
	}
}
