package profile

import (
	"slices"

	"doubleplay/internal/vm"
)

// StackResolver maps architectural thread state to guest function names:
// the shadow-stack reconstruction Profiler.stackNode performs when
// attaching to a checkpoint-restored machine, exported for consumers
// that want a readable call stack for an arbitrary stopped thread (the
// debug session's `stack` command).
type StackResolver struct {
	p *Profiler
}

// NewStackResolver builds a resolver for prog.
func NewStackResolver(prog *vm.Program) *StackResolver {
	return &StackResolver{p: New(prog)}
}

// FuncName names the function containing pc, "?" outside every body.
func (r *StackResolver) FuncName(pc int) string {
	return r.p.fnName(r.p.funcAt(pc))
}

// Stack returns t's call stack as function names, outermost caller
// first, attributing frames as Profiler.stackNode does.
func (r *StackResolver) Stack(t *vm.Thread) []string {
	var out []string
	for n := r.p.stackNode(t); n != r.p.root; n = n.parent {
		out = append(out, r.p.fnName(n.fn))
	}
	slices.Reverse(out)
	return out
}
