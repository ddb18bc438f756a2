package guestgen_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/guestgen"
	"doubleplay/internal/mem"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// parOutcome is everything a windowed thread-parallel run and the strict
// one must agree on.
type parOutcome struct {
	Err                string
	Wall, Now, Retired int64
	Hash               uint64
	Threads            []*vm.Thread // status, pc, registers, frames, Retired, fault text, …
	Pages              int
	Touched            int64 // pages copied on write plus pages materialised
	Sync               []vm.SyncEvent
	Sys                []vm.SysResult
	Signals            []dplog.SignalRecord
}

// parConfig is one way of driving a sched.Parallel over a guest.
type parConfig struct {
	cpus    int
	seed    int64
	quantum int64
	chunked bool // RunUntil in chunks with AddCost between, else one Run
}

// runParallel drives g under cfg against w, logging w's signals as the
// recorder does. strict forces every instruction through Step, the
// reference, the way any observer of plain instructions does, by arming a
// no-op OnRetire: no window, and no RunSlice in the strict loop. A chunked
// run stops every 1…20,000 cycles, so limits land inside windows, and
// snapshots memory at every stop as the recorder's checkpoints do, so
// stores find shared pages to copy.
func runParallel(t *testing.T, g *guestgen.Guest, w *simos.World, cfg parConfig, strict bool) (parOutcome, *sched.Parallel) {
	t.Helper()
	var o parOutcome
	m, live := vm.NewMachine(g.Prog, nil, nil), epoch.NewLiveLog(nil, 0)
	live.Attach(m, w)
	os := &tape{live: m.OS}
	m.OS = os
	m.Hooks.OnSync = func(ev vm.SyncEvent) { o.Sync = append(o.Sync, ev) }
	if strict {
		m.Hooks.OnRetire = func(*vm.Thread, int, int64) {}
	}
	p := sched.NewParallel(m, cfg.cpus, cfg.seed)
	p.Quantum, p.Signals = cfg.quantum, live.Signals()
	var err error
	if cfg.chunked {
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
		var snap *mem.Snapshot
		for !m.Done() && err == nil {
			step := int64(1 + rng.Intn(40))
			if rng.Intn(3) == 0 {
				step = int64(1 + rng.Intn(20000))
			}
			limit := p.Now() + step
			err = p.RunUntil(limit)
			if err == nil && !m.Done() && p.Now() < limit {
				t.Fatalf("RunUntil(%d) returned at %d with the guest still running", limit, p.Now())
			}
			p.AddCost(int64(rng.Intn(90)))
			st := m.Mem.Stats()
			o.Touched += st.PagesCopied + st.PagesNew
			m.Mem.ResetStats()
			if snap != nil {
				snap.Release()
			}
			snap = m.Mem.Snapshot()
		}
	} else {
		err = p.Run()
	}
	if err != nil {
		o.Err = err.Error()
	}
	st := m.Mem.Stats()
	o.Touched += st.PagesCopied + st.PagesNew
	o.Wall, o.Now, o.Retired = p.WallTime(), p.Now(), p.Retired()
	o.Hash, o.Threads, o.Pages, o.Sys = m.StateHash(), m.Threads, m.Mem.PageCount(), os.results
	o.Signals = live.Take().Signals
	return o, p
}

// checkWindows is the differential oracle for sched.Parallel's windows:
// one generated guest — racy, faulting and syscalling ones included —
// under a world that scripts signals, under every CPU count, whole and in
// chunks, windows against the strict path. What the windowed runs did is
// added to sum.
func checkWindows(t *testing.T, data []byte, seed uint64, sum *windowTotals) {
	g := guestgen.Generate(data)
	if seed%2 == 1 {
		g = guestgen.GenerateRacy(data) // conflicts are what windows exist to catch
	}
	world := signalScript(g, seed)
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, cpus := range []int{1, 2, 3, 5} {
		for _, chunked := range []bool{false, true} {
			cfg := parConfig{cpus: cpus, seed: rng.Int63(), quantum: sched.DefaultQuantum, chunked: chunked}
			if rng.Intn(2) == 0 {
				cfg.quantum = int64(1 + rng.Intn(400))
			}
			want, ref := runParallel(t, g, world(), cfg, true)
			if ref.WindowRetired != 0 || ref.Windows != 0 {
				t.Fatalf("%+v: strict run retired %d instructions in %d windows", cfg, ref.WindowRetired, ref.Windows)
			}
			got, p := runParallel(t, g, world(), cfg, false)
			if p.WindowRetired > p.Retired() {
				t.Fatalf("%+v: %d of %d instructions in windows", cfg, p.WindowRetired, p.Retired())
			}
			sum.retired += p.Retired()
			sum.inWindows += p.WindowRetired
			sum.windows += p.Windows
			sum.eventAborts += p.WindowEventAborts
			sum.conflictAborts += p.WindowConflictAborts
			sum.signals += int64(len(want.Signals))
			if reflect.DeepEqual(got, want) {
				continue
			}
			t.Errorf("%+v (disciplined %v, may fault %v): windows / strict: err %q/%q wall %d/%d now %d/%d retired %d/%d hash %016x/%016x pages %d/%d touched %d/%d sync %d/%d sys %d/%d signals %v/%v",
				cfg, g.Disciplined, g.MayFault, got.Err, want.Err, got.Wall, want.Wall, got.Now, want.Now, got.Retired, want.Retired,
				got.Hash, want.Hash, got.Pages, want.Pages, got.Touched, want.Touched, len(got.Sync), len(want.Sync), len(got.Sys), len(want.Sys),
				got.Signals, want.Signals)
			diffThreads(t, got.Threads, want.Threads)
			t.FailNow()
		}
	}
}

// windowTotals sums the window counters of the runs an oracle made.
type windowTotals struct {
	retired, inWindows, windows, eventAborts, conflictAborts, signals int64
}

// FuzzParallelWindows holds sched.Parallel's windows to the strict
// per-instruction interleaving on generated programs under worlds that
// script signals.
func FuzzParallelWindows(f *testing.F) {
	for i := uint64(0); i < 8; i++ {
		f.Add(binary.LittleEndian.AppendUint64(nil, i*0x9e3779b97f4a7c15), i)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) { checkWindows(t, data, seed, new(windowTotals)) })
}

// TestParallelWindowsMatchStrict is FuzzParallelWindows over a fixed range
// of seeds, so the oracle runs in every `go test`.
func TestParallelWindowsMatchStrict(t *testing.T) {
	const n = 400
	var sum windowTotals
	for i := 0; i < n; i++ {
		data := binary.LittleEndian.AppendUint64(nil, uint64(i)*0x9e3779b97f4a7c15+1)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkWindows(t, data, uint64(i), &sum) })
	}
	// Windows, both ways of abandoning one and signals that end them must
	// actually have been in play, or the oracle compared the strict path
	// with itself.
	t.Logf("%d of %d instructions retired inside %d windows (%.1f%%); %d cut short by an event, %d abandoned on a conflict; %d signals delivered",
		sum.inWindows, sum.retired, sum.windows, 100*float64(sum.inWindows)/float64(sum.retired), sum.eventAborts, sum.conflictAborts, sum.signals)
	if sum.inWindows*2 < sum.retired || sum.eventAborts < int64(n) || sum.conflictAborts < int64(n) || sum.signals < int64(n) {
		t.Fatal("the generated guests no longer exercise the windows")
	}
}
