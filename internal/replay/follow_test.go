package replay_test

import (
	"errors"
	"strings"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// TestStepperFollowsWhatRunLogged holds the two users of epoch.Exec to each
// other on every workload: each epoch the recorder could verify is run
// again by epoch.Run (gated by the sync order, logging a schedule) and then
// stepped by a Stepper following that schedule, which must reach the same
// end state having injected the same syscalls, re-delivered the same
// signals and retired as many gated sync operations as Run's gate passed.
// The no-enforcement recordings of the racy guests add epochs that forward
// recovery adopted and epochs it re-ran (those carry no sync order to gate
// by, so Run cannot reproduce them and they are only counted).
func TestStepperFollowsWhatRunLogged(t *testing.T) {
	type config struct {
		name string
		opt  core.Options
	}
	var cfgs []config
	for _, wl := range workloads.All() {
		cfgs = append(cfgs, config{wl.Name, core.Options{SpareCPUs: 2}})
	}
	for _, name := range []string{"racey", "webserve-racy"} {
		cfgs = append(cfgs, config{name, core.Options{SpareCPUs: 2, DisableSyncEnforcement: true, EpochCycles: 6000}})
	}
	var adopted, rerun, signals int
	for _, c := range cfgs {
		bt := workloads.Get(c.name).Build(workloads.Params{Workers: 3, Seed: 17})
		c.opt.Workers, c.opt.Seed = 3, 17
		res, err := core.Record(bt.Prog, bt.World, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		kind := map[int]string{}
		for _, d := range res.Divergences {
			kind[d.Epoch] = d.Kind
		}
		for i, ep := range res.Recording.Epochs {
			switch kind[i] {
			case "input":
				rerun++
				continue
			case "state":
				adopted++
			}
			run, err := epoch.Run(epoch.RunSpec{
				Prog: bt.Prog, Start: res.Boundaries[i], Targets: ep.Targets,
				SyncOrder: ep.SyncOrder, Syscalls: ep.Syscalls, Signals: ep.Signals,
				Quantum: res.Recording.Quantum, Costs: vm.DefaultCosts(),
				DisableEnforcement: c.opt.DisableSyncEnforcement,
			})
			if err != nil || run.EndHash != ep.EndHash {
				t.Fatalf("%s epoch %d: Run = %016x, %v; logged end %016x", c.name, i, run.EndHash, err, ep.EndHash)
			}

			follow := *ep
			follow.Schedule = run.Schedule
			m := res.Boundaries[i].CP.Restore(bt.Prog, nil, nil)
			st, err := replay.NewStepper(m, &follow, res.Recording.Quantum, nil)
			if err != nil {
				t.Fatalf("%s epoch %d: %v", c.name, i, err)
			}
			var gated, delivered int
			m.Hooks.OnSync = func(ev vm.SyncEvent) {
				if ev.Gated() {
					gated++
				}
			}
			for step := 0; !st.Done(); step++ {
				ev, err := st.Step()
				if err != nil {
					t.Fatalf("%s epoch %d step %d: %v", c.name, i, step, err)
				}
				if ev.Signal {
					delivered++
				}
			}
			// Done is the Stepper's proof that nothing logged was left over,
			// so what it injected is what the epoch holds.
			if h := m.StateHash(); h != run.EndHash {
				t.Errorf("%s epoch %d: followed to %016x, Run ended at %016x", c.name, i, h, run.EndHash)
			}
			if run.Injected != len(ep.Syscalls) || delivered != len(ep.Signals) || gated != run.Enforced {
				t.Errorf("%s epoch %d: Run injected %d of %d syscalls and passed %d gated ops; the Stepper delivered %d of %d signals and retired %d gated ops",
					c.name, i, run.Injected, len(ep.Syscalls), run.Enforced, delivered, len(ep.Signals), gated)
			}
			signals += delivered
		}
	}
	if adopted == 0 || rerun == 0 || signals == 0 {
		t.Fatalf("coverage: %d adopted epochs, %d re-run epochs, %d signals followed; want all non-zero", adopted, rerun, signals)
	}
}

// TestLeftoverIsACertViolation gives a certified epoch's log one thing more
// than the execution consumes — in each of the three streams, and a thread
// more than ran — and checks the Stepper reports what epoch.Exec's
// end-of-epoch proof found as a broken certificate, not as a divergence.
// (internal/epoch's TestLeftoverIsADivergence holds Run to the same four.)
func TestLeftoverIsACertViolation(t *testing.T) {
	bt := workloads.Get("sigping").Build(workloads.Params{Workers: 2, Seed: 17})
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers: 2, SpareCPUs: 2, Seed: 17, VerifyPolicy: core.VerifyCertified,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VerifySkipped == 0 {
		t.Fatalf("sigping was not certified: %s", res.Stats.VerifyFallback)
	}
	ep := res.Recording.Epochs[0]
	for _, tc := range []struct {
		name, want string
		corrupt    func(*dplog.EpochLog)
	}{
		{"clean", "", func(*dplog.EpochLog) {}},
		{"sync op", "1 recorded sync ops never performed", func(e *dplog.EpochLog) {
			e.SyncOrder = append(e.SyncOrder[:len(e.SyncOrder):len(e.SyncOrder)], dplog.SyncRecord{Tid: 0, Kind: vm.ObjLock, ID: 1 << 20})
		}},
		{"syscall", "1 recorded syscalls never issued", func(e *dplog.EpochLog) {
			e.Syscalls = append(e.Syscalls[:len(e.Syscalls):len(e.Syscalls)], dplog.SyscallRecord{Tid: 9, Num: 1})
		}},
		{"signal", "1 recorded signals never delivered", func(e *dplog.EpochLog) {
			e.Signals = append(e.Signals[:len(e.Signals):len(e.Signals)], dplog.SignalRecord{Tid: 0, Retired: 1 << 40, Sig: 9})
		}},
		{"thread", "differs from recorded", func(e *dplog.EpochLog) {
			e.Targets = append(e.Targets[:len(e.Targets):len(e.Targets)], 0)
		}},
	} {
		bad := *ep
		tc.corrupt(&bad)
		st, err := replay.NewStepper(vm.NewMachine(bt.Prog, nil, nil), &bad, res.Recording.Quantum, nil)
		if err == nil {
			_, err = st.Run()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("clean epoch: %v", err)
		case tc.want != "" && (!errors.Is(err, replay.ErrCertViolated) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("leftover %s: err = %v, want ErrCertViolated saying %q", tc.name, err, tc.want)
		}
	}
}
