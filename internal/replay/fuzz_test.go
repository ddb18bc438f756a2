package replay_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// mutate applies one random perturbation to a recording and reports what it
// changed (for diagnostics). It returns false if it found nothing to change.
func mutate(rng *rand.Rand, rec *dplog.Recording) (string, bool) {
	if len(rec.Epochs) == 0 {
		return "", false
	}
	ep := rec.Epochs[rng.Intn(len(rec.Epochs))]
	switch rng.Intn(6) {
	case 0: // perturb a slice length
		if len(ep.Schedule) == 0 {
			return "", false
		}
		i := rng.Intn(len(ep.Schedule))
		ep.Schedule[i].N += uint64(1 + rng.Intn(3))
		return "slice-length", true
	case 1: // retarget a slice to another thread
		if len(ep.Schedule) < 2 || len(ep.Targets) < 2 {
			return "", false
		}
		i := rng.Intn(len(ep.Schedule))
		ep.Schedule[i].Tid = (ep.Schedule[i].Tid + 1) % len(ep.Targets)
		return "slice-tid", true
	case 2: // corrupt a syscall result value
		if len(ep.Syscalls) == 0 {
			return "", false
		}
		ep.Syscalls[rng.Intn(len(ep.Syscalls))].Ret += 1
		return "syscall-ret", true
	case 3: // drop a syscall record
		if len(ep.Syscalls) == 0 {
			return "", false
		}
		i := rng.Intn(len(ep.Syscalls))
		ep.Syscalls = append(ep.Syscalls[:i], ep.Syscalls[i+1:]...)
		return "syscall-drop", true
	case 4: // shift a thread's epoch target
		if len(ep.Targets) == 0 {
			return "", false
		}
		i := rng.Intn(len(ep.Targets))
		ep.Targets[i] += uint64(1 + rng.Intn(2))
		return "target", true
	case 5: // shift a signal's delivery point
		if len(ep.Signals) == 0 {
			return "", false
		}
		ep.Signals[rng.Intn(len(ep.Signals))].Retired += 1
		return "signal-point", true
	}
	return "", false
}

// steppedReplay replays rec from reset one instruction at a time — every
// epoch a Stepper drained by Step calls — and checks the final hash.
func steppedReplay(prog *vm.Program, rec *dplog.Recording) error {
	m := vm.NewMachine(prog, nil, nil)
	for _, ep := range rec.Epochs {
		st, err := replay.NewStepper(m, ep, rec.Quantum, nil)
		if err != nil {
			return err
		}
		for !st.Done() {
			if _, err := st.Step(); err != nil {
				return err
			}
		}
	}
	if h := m.StateHash(); h != rec.FinalHash {
		return fmt.Errorf("stepped final hash %016x != recorded %016x", h, rec.FinalHash)
	}
	return nil
}

// TestQuickMutatedLogsNeverReplayWrong is the failure-injection property:
// after a random corruption, replay must either reject the log or — when
// the mutation happens to be behaviourally neutral — reproduce the
// recorded final hash. It must never silently produce a different
// execution that passes verification (verification includes per-epoch and
// final hashes, so this is really testing that those checks are airtight).
// The oracle is pointed at every path an epoch can be replayed by —
// sequential, epoch-parallel and sparse plans from the recorder's own
// checkpoints, the sparse plan of a stored log priced from one pass, and
// a recording stepped instruction by instruction — and they must all give
// the same verdict.
func TestQuickMutatedLogsNeverReplayWrong(t *testing.T) {
	workloadNames := []string{"kvdb", "sigping", "pfscan"}
	type recorded struct {
		prog *vm.Program
		res  *core.Result
		data []byte
	}
	base := make(map[string]recorded)
	for _, name := range workloadNames {
		wl := workloads.Get(name)
		bt := wl.Build(workloads.Params{Workers: 3, Seed: 29})
		res, err := core.Record(bt.Prog, bt.World, core.Options{
			Workers: 3, SpareCPUs: 3, Seed: 29,
		})
		if err != nil {
			t.Fatal(err)
		}
		base[name] = recorded{bt.Prog, res, dplog.MarshalBytes(res.Recording)}
	}

	f := func(seed int64, pick uint8) bool {
		name := workloadNames[int(pick)%len(workloadNames)]
		b := base[name]
		rec, err := dplog.UnmarshalBytes(b.data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		kind, ok := mutate(rng, rec)
		if !ok {
			return true // nothing mutated; vacuous
		}
		// One verdict per path: rejected (the desired common case), or
		// accepted with the recorded hash (a behaviourally neutral
		// mutation).
		rejected := make(map[string]bool)
		for _, p := range plans(b.res) {
			rep, err := replay.Run(context.Background(), b.prog, replay.FromRecording(rec), p.options(2))
			if err == nil && rep.FinalHash != rec.FinalHash {
				t.Logf("%s mutation %q: %s replay 'succeeded' with a different hash", name, kind, p.name)
				return false
			}
			rejected[p.name] = err != nil
		}
		rejected["stepped"] = steppedReplay(b.prog, rec) != nil
		for path, r := range rejected {
			if r != rejected["sequential"] {
				t.Logf("%s mutation %q: %s rejected=%v but sequential rejected=%v", name, kind, path, r, !r)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
