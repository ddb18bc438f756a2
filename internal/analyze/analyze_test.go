// Tests drive the analyzer from outside the package, over programs
// built with internal/asm.
package analyze_test

import (
	"testing"

	"doubleplay/internal/analyze"
	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

func kinds(fs *analyze.Findings) map[analyze.Kind]int {
	out := map[analyze.Kind]int{}
	for _, f := range fs.List {
		out[f.Kind]++
	}
	return out
}

// spawnTwo emits main spawning two workers and joining both.
func spawnTwo(m *asm.Func, distinctArgs bool) {
	t1, t2, arg := m.Reg(), m.Reg(), m.Reg()
	m.Movi(arg, 0)
	m.Spawn(t1, "worker", arg)
	if distinctArgs {
		m.Movi(arg, 1)
	}
	m.Spawn(t2, "worker", arg)
	m.Join(t1)
	m.Join(t2)
}

// TestLints drives each dataflow and structural check over a small
// hand-built program that should trip exactly it.
func TestLints(t *testing.T) {
	cases := []struct {
		name    string
		build   func(b *asm.Builder)
		want    analyze.Kind
		wantSev analyze.Severity
	}{
		{
			name: "unlock never held",
			build: func(b *asm.Builder) {
				f := b.Func("main", 0)
				f.UnlockR(f.Const(3))
				f.HaltImm(0)
			},
			want: analyze.UnbalancedLock, wantSev: analyze.SevError,
		},
		{
			name: "recursive lock",
			build: func(b *asm.Builder) {
				f := b.Func("main", 0)
				lk := f.Const(3)
				f.LockR(lk)
				f.LockR(lk)
				f.UnlockR(lk)
				f.HaltImm(0)
			},
			want: analyze.RecursiveLock, wantSev: analyze.SevError,
		},
		{
			name: "lock held at thread exit",
			build: func(b *asm.Builder) {
				f := b.Func("main", 0)
				f.LockR(f.Const(3))
				f.HaltImm(0)
			},
			want: analyze.LockAtExit, wantSev: analyze.SevWarning,
		},
		{
			name: "dead block",
			build: func(b *asm.Builder) {
				f := b.Func("main", 0)
				r := f.Reg()
				done := f.NewLabel()
				f.Jump(done)
				f.Movi(r, 1) // unreachable
				f.Label(done)
				f.HaltImm(0)
			},
			want: analyze.DeadBlock, wantSev: analyze.SevWarning,
		},
		{
			name: "dead store",
			build: func(b *asm.Builder) {
				f := b.Func("main", 0)
				r := f.Reg()
				f.Movi(r, 1) // overwritten before any read
				f.Movi(r, 2)
				f.Halt(r)
			},
			want: analyze.DeadStore, wantSev: analyze.SevWarning,
		},
		{
			name: "fall off function end",
			build: func(b *asm.Builder) {
				f := b.Func("main", 0)
				r := f.Reg()
				f.Movi(r, 1) // no halt or ret follows
			},
			want: analyze.FallOffEnd, wantSev: analyze.SevError,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.NewBuilder("t")
			tc.build(b)
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			fs := analyze.Run(prog)
			got := fs.ByKind(tc.want)
			if len(got) == 0 {
				t.Fatalf("no %s finding; got %v", tc.want, fs.List)
			}
			if got[0].Sev != tc.wantSev {
				t.Fatalf("%s severity = %s, want %s", tc.want, got[0].Sev, tc.wantSev)
			}
		})
	}
}

func TestInvalidProgramFinding(t *testing.T) {
	p := &vm.Program{Name: "broken"}
	fs := analyze.Run(p)
	if len(fs.ByKind(analyze.InvalidProgram)) != 1 || fs.Errors() != 1 {
		t.Fatalf("want a single invalid-program error, got %v", fs.List)
	}
}

// buildCounterRace builds two workers doing a read-modify-write on one
// shared cell, optionally under a consistent lock.
func buildCounterRace(t *testing.T, locked bool) (*vm.Program, vm.Word) {
	t.Helper()
	b := asm.NewBuilder("t")
	cell := b.Words(0)
	w := b.Func("worker", 1)
	{
		cellA := w.Const(cell)
		lk := w.Const(9)
		tmp := w.Reg()
		if locked {
			w.LockR(lk)
		}
		w.Ld(tmp, cellA, 0)
		w.Addi(tmp, tmp, 1)
		w.St(cellA, 0, tmp)
		if locked {
			w.UnlockR(lk)
		}
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	spawnTwo(m, false) // identical spawn args: one context, two instances
	m.HaltImm(0)
	b.SetEntry("main")
	return b.MustBuild(), cell
}

func TestInconsistentLocksetFlagged(t *testing.T) {
	prog, cell := buildCounterRace(t, false)
	fs := analyze.Run(prog)
	if len(fs.Races()) == 0 {
		t.Fatalf("unlocked shared counter not flagged: %v", fs.List)
	}
	if !fs.Covers(cell) {
		t.Fatalf("candidates %v do not cover cell %d", fs.Races(), cell)
	}
}

func TestConsistentLocksetClean(t *testing.T) {
	prog, _ := buildCounterRace(t, true)
	fs := analyze.Run(prog)
	if n := len(fs.Races()); n != 0 {
		t.Fatalf("lock-protected counter flagged %d candidates: %v", n, fs.Races())
	}
}

// TestPerInstanceAddressNoSelfRace pins the radix-style pattern: each
// worker derives a private exact address from its spawn argument, so the
// per-context constant sites must not be paired against themselves.
func TestPerInstanceAddressNoSelfRace(t *testing.T) {
	b := asm.NewBuilder("t")
	arr := b.Zeros(4)
	w := b.Func("worker", 1)
	{
		k := w.Arg(0)
		mine, tmp := w.Reg(), w.Reg()
		w.Addi(mine, k, arr) // &arr[k]: disjoint per instance
		w.Ld(tmp, mine, 0)
		w.Addi(tmp, tmp, 1)
		w.St(mine, 0, tmp)
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	spawnTwo(m, true) // args 0 and 1: two specialized contexts
	m.HaltImm(0)
	b.SetEntry("main")
	fs := analyze.Run(b.MustBuild())
	if n := len(fs.Races()); n != 0 {
		t.Fatalf("per-instance addresses flagged %d candidates: %v", n, fs.Races())
	}
}

// TestMainOnlyAccessClean pins the pre-spawn/post-join suppression: the
// initial thread touching shared data while no children are live is not
// concurrent with anything.
func TestMainOnlyAccessClean(t *testing.T) {
	b := asm.NewBuilder("t")
	cell := b.Words(0)
	w := b.Func("worker", 1)
	w.HaltImm(0)
	m := b.Func("main", 0)
	{
		cellA := m.Const(cell)
		tmp := m.Reg()
		m.Ld(tmp, cellA, 0) // pre-spawn
		spawnTwo(m, true)
		m.Addi(tmp, tmp, 1)
		m.St(cellA, 0, tmp) // post-join
		m.HaltImm(0)
	}
	b.SetEntry("main")
	fs := analyze.Run(b.MustBuild())
	if n := len(fs.Races()); n != 0 {
		t.Fatalf("join-ordered accesses flagged %d candidates: %v", n, fs.Races())
	}
}

// TestWorkloadScreen cross-validates the screen against the suite's
// ground truth: every racy workload is flagged on its known cells, every
// race-free workload comes back with zero candidates, and nothing in the
// suite trips an error-severity finding.
func TestWorkloadScreen(t *testing.T) {
	for _, wl := range workloads.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			bt := wl.Build(workloads.Params{Workers: 2})
			fs := analyze.Run(bt.Prog)
			if n := fs.Errors(); n != 0 {
				t.Fatalf("%d error findings: %v", n, fs.List)
			}
			races := fs.Races()
			if wl.Racy && len(races) == 0 {
				t.Fatalf("racy workload not flagged: %v", fs.List)
			}
			if !wl.Racy && len(races) != 0 {
				t.Fatalf("race-free workload flagged: %v", races)
			}
			for _, addr := range bt.RacyAddrs {
				if !fs.Covers(addr) {
					t.Errorf("known racy cell %d not covered by %v", addr, races)
				}
			}
		})
	}
}

// TestWorkloadScreenMoreWorkers guards against the screen degrading at a
// different spawn count (more contexts per worker function).
func TestWorkloadScreenMoreWorkers(t *testing.T) {
	for _, name := range []string{"radix", "racey", "kvdb"} {
		wl := workloads.Get(name)
		bt := wl.Build(workloads.Params{Workers: 4})
		fs := analyze.Run(bt.Prog)
		if wl.Racy != (len(fs.Races()) > 0) {
			t.Errorf("%s with 4 workers: racy=%t but %d candidates", name, wl.Racy, len(fs.Races()))
		}
	}
}

func TestSummaryAndKindsAccessors(t *testing.T) {
	prog, _ := buildCounterRace(t, false)
	fs := analyze.Run(prog)
	if fs.Summary() == "" {
		t.Fatal("empty summary")
	}
	if got := kinds(fs)[analyze.RaceCandidate]; got != len(fs.Races()) {
		t.Fatalf("ByKind/Races disagree: %d vs %d", got, len(fs.Races()))
	}
	if fs.Warnings() < len(fs.Races()) {
		t.Fatal("race candidates must count as warnings")
	}
}
