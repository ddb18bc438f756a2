// Divergence forensics: diff the guest states of two recordings of the
// same program at an epoch boundary, and bisect for the first boundary
// at which they differ. Racy programs recorded under different seeds
// start from identical initial states and drift apart the first time a
// race resolves differently; the recorded per-epoch state hashes pin
// down exactly where, without executing anything — execution is only
// needed to materialize the two states for the word-level diff.

package debug

import (
	"fmt"

	"doubleplay/internal/mem"
	"doubleplay/internal/vm"
)

// maxDiffWords bounds the word-level diff detail in a StateDiff;
// WordsDiffer always carries the full count.
const maxDiffWords = 64

// WordDiff is one guest memory word that differs between the states.
type WordDiff struct {
	Addr vm.Word `json:"addr"`
	A    vm.Word `json:"a"`
	B    vm.Word `json:"b"`
}

// ThreadDiff describes one thread that differs between the states.
// Fields are reported pairwise (A = first recording, B = second).
type ThreadDiff struct {
	Tid        int    `json:"tid"`
	OnlyIn     string `json:"only_in,omitempty"` // "a" or "b" when the other lacks the thread
	PCA        int    `json:"pc_a"`
	PCB        int    `json:"pc_b"`
	FuncA      string `json:"func_a,omitempty"`
	FuncB      string `json:"func_b,omitempty"`
	RetiredA   uint64 `json:"retired_a"`
	RetiredB   uint64 `json:"retired_b"`
	StatusA    string `json:"status_a,omitempty"`
	StatusB    string `json:"status_b,omitempty"`
	RegsDiffer []int  `json:"regs_differ,omitempty"`
}

// StateDiff is the guest-state delta between two recordings at one
// epoch boundary. Equal means the architectural hashes match (and the
// remaining fields are empty).
type StateDiff struct {
	Epoch       int          `json:"epoch"`
	Equal       bool         `json:"equal"`
	HashA       string       `json:"hash_a"`
	HashB       string       `json:"hash_b"`
	ThreadsA    int          `json:"threads_a"`
	ThreadsB    int          `json:"threads_b"`
	Threads     []ThreadDiff `json:"threads,omitempty"`
	PagesDiffer int          `json:"pages_differ"`
	WordsDiffer int          `json:"words_differ"`
	Words       []WordDiff   `json:"words,omitempty"` // first maxDiffWords of them
}

// BisectResult reports where two recordings first diverge.
type BisectResult struct {
	Diverged bool `json:"diverged"`
	// Epoch is the first boundary at which the recorded state hashes
	// differ: the states before epoch Epoch disagree, the states before
	// Epoch-1 agree, so the divergence happened inside epoch Epoch-1.
	Epoch int `json:"epoch,omitempty"`
	// Tail marks divergence by length only: every common boundary
	// agrees but one recording has more epochs.
	Tail    bool       `json:"tail,omitempty"`
	EpochsA int        `json:"epochs_a"`
	EpochsB int        `json:"epochs_b"`
	HashA   string     `json:"hash_a,omitempty"`
	HashB   string     `json:"hash_b,omitempty"`
	Diff    *StateDiff `json:"diff,omitempty"`
}

// diffAt replays both sessions to boundary e and diffs their guest
// states: threads (pc, retired, status, registers) and memory words.
// Both sessions must be over recordings of the same program.
func diffAt(a, b *Session, e int) (*StateDiff, error) {
	ha, err := a.BoundaryHash(e)
	if err != nil {
		return nil, fmt.Errorf("debug: recording A: %w", err)
	}
	hb, err := b.BoundaryHash(e)
	if err != nil {
		return nil, fmt.Errorf("debug: recording B: %w", err)
	}
	d := &StateDiff{
		Epoch: e,
		Equal: ha == hb,
		HashA: fmt.Sprintf("%016x", ha),
		HashB: fmt.Sprintf("%016x", hb),
	}
	if err := a.RunToEpoch(e); err != nil {
		return nil, fmt.Errorf("debug: recording A: %w", err)
	}
	if err := b.RunToEpoch(e); err != nil {
		return nil, fmt.Errorf("debug: recording B: %w", err)
	}
	d.ThreadsA = len(a.m.Threads)
	d.ThreadsB = len(b.m.Threads)
	if d.Equal {
		return d, nil
	}

	n := max(d.ThreadsA, d.ThreadsB)
	for tid := 0; tid < n; tid++ {
		ta, tb := a.m.Thread(tid), b.m.Thread(tid)
		switch {
		case tb == nil:
			d.Threads = append(d.Threads, ThreadDiff{
				Tid: tid, OnlyIn: "a", PCA: ta.PC, FuncA: a.FuncName(ta.PC),
				RetiredA: ta.Retired, StatusA: ta.Status.String(),
			})
		case ta == nil:
			d.Threads = append(d.Threads, ThreadDiff{
				Tid: tid, OnlyIn: "b", PCB: tb.PC, FuncB: b.FuncName(tb.PC),
				RetiredB: tb.Retired, StatusB: tb.Status.String(),
			})
		default:
			td := ThreadDiff{
				Tid: tid,
				PCA: ta.PC, PCB: tb.PC,
				RetiredA: ta.Retired, RetiredB: tb.Retired,
				StatusA: ta.Status.String(), StatusB: tb.Status.String(),
			}
			for r := 0; r < vm.NumRegs; r++ {
				if ta.Regs[r] != tb.Regs[r] {
					td.RegsDiffer = append(td.RegsDiffer, r)
				}
			}
			if ta.PC != tb.PC || ta.Retired != tb.Retired || ta.Status != tb.Status ||
				len(td.RegsDiffer) > 0 || len(ta.Frames) != len(tb.Frames) {
				td.FuncA, td.FuncB = a.FuncName(ta.PC), b.FuncName(tb.PC)
				d.Threads = append(d.Threads, td)
			}
		}
	}

	pageSize := vm.Word(1) << mem.PageShift
	for _, pg := range a.m.Mem.DiffPages(b.m.Mem) {
		base := pg * pageSize
		differed := false
		for off := vm.Word(0); off < pageSize; off++ {
			av, bv := a.m.Mem.Peek(base+off), b.m.Mem.Peek(base+off)
			if av == bv {
				continue
			}
			differed = true
			d.WordsDiffer++
			if len(d.Words) < maxDiffWords {
				d.Words = append(d.Words, WordDiff{Addr: base + off, A: av, B: bv})
			}
		}
		if differed {
			d.PagesDiffer++
		}
	}
	return d, nil
}

// Bisect finds the first epoch boundary at which two recordings'
// states diverge. The search runs over the *recorded* per-boundary
// state hashes — pure log reads, so the answer is identical whatever
// replay strategy or byte source backs each session — and only the
// final word-level diff replays anything. The returned Epoch always
// satisfies: boundary Epoch-1 hashes agree, boundary Epoch hashes
// differ (a racy execution that diverged and later reconverged would
// report the first divergent boundary of some divergent interval,
// which binary search still finds deterministically).
func Bisect(a, b *Session) (*BisectResult, error) {
	res := &BisectResult{EpochsA: a.NumEpochs(), EpochsB: b.NumEpochs()}
	differs := func(i int) (bool, uint64, uint64, error) {
		ha, err := a.BoundaryHash(i)
		if err != nil {
			return false, 0, 0, fmt.Errorf("debug: recording A: %w", err)
		}
		hb, err := b.BoundaryHash(i)
		if err != nil {
			return false, 0, 0, fmt.Errorf("debug: recording B: %w", err)
		}
		return ha != hb, ha, hb, err
	}

	d0, _, _, err := differs(0)
	if err != nil {
		return nil, err
	}
	if d0 {
		// Different initial states: not two recordings of the same
		// program build, so "first divergent epoch" is the very start.
		return CompareAt(a, b, 0)
	}

	hi := min(res.EpochsA, res.EpochsB)
	dHi, ha, hb, err := differs(hi)
	if err != nil {
		return nil, err
	}
	if !dHi {
		if res.EpochsA == res.EpochsB {
			return res, nil // identical executions, boundary for boundary
		}
		// Common prefix agrees completely; one recording simply ran on.
		res.Diverged, res.Tail, res.Epoch = true, true, hi
		res.HashA, res.HashB = fmt.Sprintf("%016x", ha), fmt.Sprintf("%016x", hb)
		return res, nil
	}

	lo := 0 // invariant: boundary lo agrees, boundary hi differs
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		d, _, _, err := differs(mid)
		if err != nil {
			return nil, err
		}
		if d {
			hi = mid
		} else {
			lo = mid
		}
	}
	return CompareAt(a, b, hi)
}

// CompareAt diffs boundary e of both sessions and reports it as a
// BisectResult, so a boundary the caller names reads like one Bisect
// found.
func CompareAt(a, b *Session, e int) (*BisectResult, error) {
	d, err := diffAt(a, b, e)
	if err != nil {
		return nil, err
	}
	return &BisectResult{
		Diverged: !d.Equal, Epoch: d.Epoch,
		EpochsA: a.NumEpochs(), EpochsB: b.NumEpochs(),
		HashA: d.HashA, HashB: d.HashB, Diff: d,
	}, nil
}
