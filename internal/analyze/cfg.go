package analyze

import "doubleplay/internal/vm"

// block is one basic block: a maximal straight-line instruction run.
type block struct {
	start, end int // code range [start, end)
	succs      []int
	reach      bool // reachable from the function entry
}

// cfg is one function's control-flow graph over its body [start, end)
// (vm.Program.FuncSpan). Block 0 is the entry block.
type cfg struct {
	start, end int
	blocks     []block
	blkAt      map[int]int // leader pc -> block index
}

// isBranch reports whether op transfers control within the function.
func isBranch(op vm.Opcode) bool {
	return op == vm.OpJmp || op == vm.OpJz || op == vm.OpJnz
}

// isTerminator reports whether op never falls through to pc+1.
func isTerminator(op vm.Opcode) bool {
	return op == vm.OpJmp || op == vm.OpRet || op == vm.OpHalt
}

// buildCFG splits function fn's body into basic blocks and wires
// successor edges. Branch targets outside the body contribute no edge;
// the structural checks report them separately.
func buildCFG(p *vm.Program, fn int) *cfg {
	g := &cfg{blkAt: make(map[int]int)}
	g.start, g.end = p.FuncSpan(fn)
	leader := make(map[int]bool, 8)
	leader[g.start] = true
	for pc := g.start; pc < g.end; pc++ {
		in := p.Code[pc]
		if isBranch(in.Op) {
			if t := int(in.Imm); t >= g.start && t < g.end {
				leader[t] = true
			}
		}
		if (isBranch(in.Op) || isTerminator(in.Op)) && pc+1 < g.end {
			leader[pc+1] = true
		}
	}
	for pc := g.start; pc < g.end; pc++ {
		if !leader[pc] {
			continue
		}
		end := pc + 1
		for end < g.end && !leader[end] {
			end++
		}
		g.blkAt[pc] = len(g.blocks)
		g.blocks = append(g.blocks, block{start: pc, end: end})
	}
	for i := range g.blocks {
		b := &g.blocks[i]
		last := p.Code[b.end-1]
		addSucc := func(pc int) {
			if j, ok := g.blkAt[pc]; ok {
				b.succs = append(b.succs, j)
			}
		}
		switch last.Op {
		case vm.OpJmp:
			addSucc(int(last.Imm))
		case vm.OpJz, vm.OpJnz:
			addSucc(int(last.Imm))
			if b.end < g.end {
				addSucc(b.end)
			}
		case vm.OpRet, vm.OpHalt:
			// no successors
		default:
			if b.end < g.end {
				addSucc(b.end)
			}
		}
	}
	g.markReachable()
	return g
}

func (g *cfg) markReachable() {
	if len(g.blocks) == 0 {
		return
	}
	stack := []int{0}
	g.blocks[0].reach = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.blocks[i].succs {
			if !g.blocks[s].reach {
				g.blocks[s].reach = true
				stack = append(stack, s)
			}
		}
	}
}

// onCycle reports whether block i can reach itself — used to decide
// whether a spawn site may execute more than once.
func (g *cfg) onCycle(i int) bool {
	seen := make([]bool, len(g.blocks))
	stack := append([]int(nil), g.blocks[i].succs...)
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if j == i {
			return true
		}
		if seen[j] {
			continue
		}
		seen[j] = true
		stack = append(stack, g.blocks[j].succs...)
	}
	return false
}
