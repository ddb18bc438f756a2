// Package profile implements a deterministic guest-program profiler.
//
// The profiler rides the vm.Hooks.OnRetire observation point: every retired
// instruction is attributed to the guest function executing it and to the
// full call stack leading there, weighted by the instruction's *static*
// per-opcode cycle charge from the cost model. Attribution is therefore a
// pure function of each thread's retired-instruction stream — the very
// stream DoublePlay records and replays — so the profile captured while
// recording is bit-identical to the profile captured while replaying the
// recording, for every replay strategy. That is the whole point: profiles
// of production runs can be regenerated offline, exactly, from the log.
//
// Two deliberate exclusions keep the determinism contract honest:
//
//   - Dynamic syscall surcharges (data movement of SysRead/SysWrite results)
//     are not attributed: the live simulated OS charges them but the replay
//     injector does not, so including them would break record/replay
//     bit-identity. They remain visible in the cycle totals of the trace
//     and metrics pipelines.
//   - Runtime charges (checkpoints, log appends, timeslice switches) belong
//     to DoublePlay itself, not the guest, and are likewise excluded. Use
//     the host pprof plumbing to profile the runtime.
//
// A Profiler is bound to one vm.Machine (single-goroutine, like the machine
// itself). Snapshot() extracts a Profile — a mergeable, serialisable value —
// so per-epoch or per-segment profilers can be combined: merging is
// commutative addition over canonical stack keys, and both exporters emit in
// sorted key order, making the output independent of epoch interleaving.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"doubleplay/internal/vm"
)

// node is one call-trie entry: the stack of functions from the root to this
// node, with the cycles and instructions retired while it was the leaf.
type node struct {
	parent   *node
	fn       int32 // index into Program.Funcs; -1 = unresolvable pc
	children map[int32]*node
	cycles   int64
	instrs   int64
}

// threadState is the profiler's cursor for one guest thread.
type threadState struct {
	cur   *node
	depth int // len(t.Frames) the cursor corresponds to
}

// Profiler attributes retired cycles to guest call stacks on one machine.
type Profiler struct {
	prog   *vm.Program
	funcOf []int32 // pc -> function index, -1 outside every body
	root   *node
	states []*threadState // indexed by tid
}

// New builds a profiler for prog. Attach it to a machine running prog.
func New(prog *vm.Program) *Profiler {
	return &Profiler{prog: prog, funcOf: funcTable(prog), root: &node{fn: -2}}
}

// funcTable flattens Program.FuncAt into a per-pc array of function
// indices, -1 outside every body.
func funcTable(prog *vm.Program) []int32 {
	tab := make([]int32, len(prog.Code))
	for pc := range tab {
		tab[pc] = -1
	}
	// Highest index first, so the lowest one owns a shared body.
	for i := len(prog.Funcs) - 1; i >= 0; i-- {
		start, end := prog.FuncSpan(i)
		for pc := max(start, 0); pc < end; pc++ {
			tab[pc] = int32(i)
		}
	}
	return tab
}

func (p *Profiler) funcAt(pc int) int32 {
	if pc < 0 || pc >= len(p.funcOf) {
		return -1
	}
	return p.funcOf[pc]
}

func (p *Profiler) fnName(fn int32) string {
	if fn < 0 || int(fn) >= len(p.prog.Funcs) {
		return "?"
	}
	return p.prog.Funcs[fn].Name
}

func (p *Profiler) child(n *node, fn int32) *node {
	c, ok := n.children[fn]
	if !ok {
		c = &node{parent: n, fn: fn}
		if n.children == nil {
			n.children = make(map[int32]*node)
		}
		n.children[fn] = c
	}
	return c
}

func (p *Profiler) state(tid int) *threadState {
	for tid >= len(p.states) {
		p.states = append(p.states, nil)
	}
	st := p.states[tid]
	if st == nil {
		st = &threadState{}
		p.states[tid] = st
	}
	return st
}

// stackNode rebuilds the trie node for t's current architectural stack: a
// normal frame's caller is the function containing the call (RetPC-1), a
// signal frame resumes at the interrupted pc itself, and the leaf is the
// function containing t.PC.
func (p *Profiler) stackNode(t *vm.Thread) *node {
	n := p.root
	for _, f := range t.Frames {
		if f.Signal {
			n = p.child(n, p.funcAt(f.RetPC))
		} else {
			n = p.child(n, p.funcAt(f.RetPC-1))
		}
	}
	return p.child(n, p.funcAt(t.PC))
}

// Attach starts profiling m. Threads that already exist (a machine restored
// from a mid-program checkpoint) have their stacks reconstructed from their
// frames; threads spawned later initialise lazily at their first retired
// instruction, which always happens with an empty call stack.
func (p *Profiler) Attach(m *vm.Machine) {
	for _, t := range m.Threads {
		if !t.Status.Live() {
			continue
		}
		st := p.state(t.ID)
		st.cur = p.stackNode(t)
		st.depth = len(t.Frames)
	}
	m.Hooks.OnRetire = p.onRetire
}

// onRetire charges the function the instruction retired in (the stack
// *before* any call/return/signal transition — a call instruction belongs to
// the caller, a return to the callee, a delivered signal to the function it
// interrupted), then follows the stack-depth delta to the new leaf.
func (p *Profiler) onRetire(t *vm.Thread, pc int, cost int64) {
	st := p.state(t.ID)
	if st.cur == nil {
		st.cur = p.child(p.root, p.funcAt(pc))
		st.depth = 0
	}
	st.cur.cycles += cost
	st.cur.instrs++
	d := len(t.Frames)
	switch {
	case d == st.depth:
		// Straight-line code, or a signal absorbed without a handler.
	case d == st.depth+1:
		// Call or signal delivery: the new leaf is the function at t.PC.
		st.cur = p.child(st.cur, p.funcAt(t.PC))
	case d == st.depth-1 && st.cur.parent != p.root && st.cur.parent != nil:
		st.cur = st.cur.parent
	default:
		// The stack moved in a way the cursor cannot follow (cannot happen
		// under the call/ret discipline); resynchronise architecturally.
		st.cur = p.stackNode(t)
	}
	st.depth = d
}

// Snapshot extracts the accumulated profile. The profiler keeps counting;
// snapshots are cumulative.
func (p *Profiler) Snapshot() *Profile {
	prof := NewProfile(p.prog.Name)
	var walk func(n *node, stack []string)
	walk = func(n *node, stack []string) {
		if n != p.root {
			stack = append(stack, p.fnName(n.fn))
			if n.instrs > 0 {
				prof.add(stack, n.cycles, n.instrs)
			}
		}
		for _, c := range n.children {
			walk(c, stack)
		}
	}
	walk(p.root, nil)
	return prof
}

// ---------------------------------------------------------------------------
// Profile: the mergeable, serialisable result

// Sample is the charge accumulated by one distinct call stack.
type Sample struct {
	Stack  []string // root-first function names
	Cycles int64
	Instrs int64
}

// Profile is a set of stack samples keyed canonically by the ";"-joined
// root-first stack, plus the program name. Merging is commutative, and both
// exporters emit sorted by key, so a profile's serialised form is
// independent of the order its pieces were gathered in.
type Profile struct {
	Name    string
	samples map[string]*Sample
}

// NewProfile returns an empty profile for the named program.
func NewProfile(name string) *Profile {
	return &Profile{Name: name, samples: make(map[string]*Sample)}
}

func (p *Profile) add(stack []string, cycles, instrs int64) {
	key := strings.Join(stack, ";")
	s := p.samples[key]
	if s == nil {
		s = &Sample{Stack: append([]string(nil), stack...)}
		p.samples[key] = s
	}
	s.Cycles += cycles
	s.Instrs += instrs
}

// Merge folds q into p by canonical stack key.
func (p *Profile) Merge(q *Profile) {
	if q == nil {
		return
	}
	if p.Name == "" {
		p.Name = q.Name
	}
	for _, s := range q.samples {
		p.add(s.Stack, s.Cycles, s.Instrs)
	}
}

// Samples returns the samples sorted by canonical stack key.
func (p *Profile) Samples() []*Sample {
	keys := make([]string, 0, len(p.samples))
	for k := range p.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Sample, len(keys))
	for i, k := range keys {
		out[i] = p.samples[k]
	}
	return out
}

// NumSamples reports the number of distinct stacks.
func (p *Profile) NumSamples() int { return len(p.samples) }

// TotalCycles sums the attributed cycles over every stack.
func (p *Profile) TotalCycles() int64 {
	var n int64
	for _, s := range p.samples {
		n += s.Cycles
	}
	return n
}

// TotalInstrs sums the attributed retired instructions over every stack.
func (p *Profile) TotalInstrs() int64 {
	var n int64
	for _, s := range p.samples {
		n += s.Instrs
	}
	return n
}

// WriteFolded writes the profile in Brendan Gregg's folded-stack format
// (one "root;...;leaf cycles" line per stack, sorted), the input format of
// flamegraph.pl and every inferno-style renderer.
func (p *Profile) WriteFolded(w io.Writer) error {
	for _, s := range p.Samples() {
		if _, err := fmt.Fprintf(w, "%s %d\n", strings.Join(s.Stack, ";"), s.Cycles); err != nil {
			return err
		}
	}
	return nil
}

// TopRow is one function's aggregate in a Top report.
type TopRow struct {
	Func   string
	Self   int64 // cycles retired with Func as the leaf
	Cum    int64 // cycles of every stack containing Func
	Instrs int64 // instructions retired with Func as the leaf
}

// Top aggregates per-function self and cumulative cycles, sorted by self
// cycles descending (name ascending on ties). n <= 0 returns every row.
func (p *Profile) Top(n int) []TopRow {
	agg := make(map[string]*TopRow)
	row := func(fn string) *TopRow {
		r := agg[fn]
		if r == nil {
			r = &TopRow{Func: fn}
			agg[fn] = r
		}
		return r
	}
	for _, s := range p.samples {
		leaf := row(s.Stack[len(s.Stack)-1])
		leaf.Self += s.Cycles
		leaf.Instrs += s.Instrs
		seen := make(map[string]bool, len(s.Stack))
		for _, fn := range s.Stack {
			if !seen[fn] {
				seen[fn] = true
				row(fn).Cum += s.Cycles
			}
		}
	}
	rows := make([]TopRow, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Func < rows[j].Func
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// RenderTop writes a human-readable top-n table with per-function shares of
// the profile's total cycles.
func (p *Profile) RenderTop(w io.Writer, n int) error {
	total := p.TotalCycles()
	if _, err := fmt.Fprintf(w, "program %s: %d cycles, %d instructions, %d stacks\n",
		p.Name, total, p.TotalInstrs(), p.NumSamples()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %12s %6s %12s %6s  %s\n",
		"self(cyc)", "self%", "cum(cyc)", "cum%", "function"); err != nil {
		return err
	}
	pct := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(v) / float64(total) * 100
	}
	for _, r := range p.Top(n) {
		if _, err := fmt.Fprintf(w, "  %12d %5.1f%% %12d %5.1f%%  %s\n",
			r.Self, pct(r.Self), r.Cum, pct(r.Cum), r.Func); err != nil {
			return err
		}
	}
	return nil
}
