package asm_test

import (
	"slices"
	"strings"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
)

// runMain executes a built program's single thread to completion and
// returns its exit value.
func runMain(t *testing.T, b *asm.Builder) vm.Word {
	t.Helper()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(prog, nil, nil)
	for steps := 0; !m.Done(); steps++ {
		if steps > 1_000_000 {
			t.Fatalf("livelock:\n%s", m.DescribeState())
		}
		for _, th := range m.Threads {
			if th.Status.Live() {
				m.Step(th)
			}
		}
	}
	if m.FaultCount() != 0 {
		t.Fatalf("guest faults: %v", m.Faults())
	}
	return m.Threads[0].ExitVal
}

func TestWhileLoop(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	i, sum, c := f.Reg(), f.Reg(), f.Reg()
	f.Movi(i, 0)
	f.Movi(sum, 0)
	f.While(func() asm.Reg { f.Slti(c, i, 10); return c }, func() {
		f.Add(sum, sum, i)
		f.Addi(i, i, 1)
	})
	f.Halt(sum)
	if got := runMain(t, b); got != 45 {
		t.Fatalf("while sum = %d, want 45", got)
	}
}

func TestNestedForLoops(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	i, j, cnt := f.Reg(), f.Reg(), f.Reg()
	lim := f.Const(7)
	f.Movi(cnt, 0)
	f.Movi(i, 0)
	f.ForLt(i, lim, func() {
		f.Movi(j, 0)
		f.ForLtImm(j, 5, func() {
			f.Addi(cnt, cnt, 1)
		})
	})
	f.Halt(cnt)
	if got := runMain(t, b); got != 35 {
		t.Fatalf("nested loops = %d, want 35", got)
	}
}

func TestIfElseBothArms(t *testing.T) {
	for _, cond := range []vm.Word{0, 1} {
		b := asm.NewBuilder("t")
		f := b.Func("main", 0)
		c, out := f.Reg(), f.Reg()
		f.Movi(c, cond)
		f.IfElse(c,
			func() { f.Movi(out, 100) },
			func() { f.Movi(out, 200) },
		)
		f.Halt(out)
		want := vm.Word(200)
		if cond != 0 {
			want = 100
		}
		if got := runMain(t, b); got != want {
			t.Fatalf("IfElse(%d) = %d, want %d", cond, got, want)
		}
	}
}

func TestIfNzIfZ(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	c, out := f.Reg(), f.Reg()
	f.Movi(out, 0)
	f.Movi(c, 1)
	f.IfNz(c, func() { f.Addi(out, out, 1) })
	f.IfZ(c, func() { f.Addi(out, out, 10) })
	f.Movi(c, 0)
	f.IfNz(c, func() { f.Addi(out, out, 100) })
	f.IfZ(c, func() { f.Addi(out, out, 1000) })
	f.Halt(out)
	if got := runMain(t, b); got != 1001 {
		t.Fatalf("got %d, want 1001", got)
	}
}

func TestDataSegmentLayout(t *testing.T) {
	b := asm.NewBuilder("t")
	a1 := b.Words(10, 20, 30)
	a2 := b.Zeros(5)
	strAddr, strLen := b.Str("hi")
	if a2 != a1+3 || strAddr != a2+5 || strLen != 2 {
		t.Fatalf("layout: a1=%d a2=%d str=%d/%d", a1, a2, strAddr, strLen)
	}
	f := b.Func("main", 0)
	base, v, sum := f.Reg(), f.Reg(), f.Reg()
	f.Movi(base, a1)
	f.Ld(v, base, 1)
	f.Mov(sum, v) // 20
	f.Movi(base, strAddr)
	f.Ld(v, base, 0)
	f.Add(sum, sum, v) // + 'h' (104)
	f.Halt(sum)
	if got := runMain(t, b); got != 124 {
		t.Fatalf("got %d, want 124", got)
	}
	if n := len(b.MustBuild().Data); n != 3+5+2 {
		t.Fatalf("data segment of %d words", n)
	}
}

// TestBuildHandsOverItsDataSegment holds Build, which allocates each
// program's data segment anew from the builder's pieces, to what a copy
// gives: a program's Data stays as built while the builder appends more,
// and appending to one program's Data reaches neither the builder nor
// another program.
func TestBuildHandsOverItsDataSegment(t *testing.T) {
	b := asm.NewBuilder("t")
	b.Words(1, 2, 3)
	b.Zeros(2)
	b.Func("main", 0).HaltImm(0)
	p1, p2 := b.MustBuild(), b.MustBuild()
	built := []vm.Word{1, 2, 3, 0, 0}
	b.Words(7) // into the spare capacity the builds saw, if they shared it
	grown := append(p1.Data, 99)
	b.Zeros(3)
	b.Words(9)
	p3 := b.MustBuild()
	for _, c := range []struct {
		name      string
		got, want []vm.Word
	}{
		{"first build", p1.Data, built},
		{"second build", p2.Data, built},
		{"first build appended to", grown, append(slices.Clone(built), 99)},
		{"build after the appends", p3.Data, []vm.Word{1, 2, 3, 0, 0, 7, 0, 0, 0, 9}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: Data = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestBuildAllocatesItsDataSegmentOnce: zeros, and Words of zero values,
// only lengthen the segment — a builder that takes 64 of them allocates
// no more than one that takes none — and Build allocates the segment at
// its exact length, one segment per build. The all-zero argument list is
// made outside the measured calls: Words keeps its argument, so a
// literal list is the caller's allocation.
func TestBuildAllocatesItsDataSegmentOnce(t *testing.T) {
	zero := make([]vm.Word, 2)
	fill := func(add func(*asm.Builder)) func() {
		return func() {
			b := asm.NewBuilder("t")
			for i := 0; i < 64; i++ {
				add(b)
			}
		}
	}
	empty := testing.AllocsPerRun(100, fill(func(*asm.Builder) {}))
	for name, add := range map[string]func(*asm.Builder){
		"Zeros(1<<16)": func(b *asm.Builder) { b.Zeros(1 << 16) },
		"Words(0, 0)":  func(b *asm.Builder) { b.Words(zero...) },
	} {
		if allocs := testing.AllocsPerRun(100, fill(add)); allocs != empty && !raceEnabled {
			t.Errorf("64 × %s: %v allocations, an empty builder's %v", name, allocs, empty)
		}
	}
	b := asm.NewBuilder("t")
	b.Zeros(1 << 16)
	b.Words(zero...)
	b.Words(5, 6)
	b.Func("main", 0).HaltImm(0)
	p1, p2 := b.MustBuild(), b.MustBuild()
	if n := 1<<16 + len(zero) + 2; len(p1.Data) != n || cap(p1.Data) != n {
		t.Fatalf("Data len %d cap %d, want both %d", len(p1.Data), cap(p1.Data), n)
	}
	if !slices.Equal(p1.Data, p2.Data) || p1.Data[len(p1.Data)-1] != 6 {
		t.Fatalf("two builds differ, or lost the last words: %v", p1.Data[len(p1.Data)-2:])
	}
	p1.Data[0] = 1
	if p2.Data[0] != 0 {
		t.Fatal("two builds share one data segment")
	}
}

func TestBuildErrors(t *testing.T) {
	// Undefined label.
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	f.Jump("nowhere")
	f.HaltImm(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("err = %v", err)
	}

	// Undefined call target.
	b = asm.NewBuilder("t")
	f = b.Func("main", 0)
	f.Call("ghost")
	f.HaltImm(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Fatalf("err = %v", err)
	}

	// Duplicate function.
	b = asm.NewBuilder("t")
	b.Func("main", 0).HaltImm(0)
	b.Func("main", 0).HaltImm(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Fatalf("err = %v", err)
	}

	// Duplicate label.
	b = asm.NewBuilder("t")
	f = b.Func("main", 0)
	f.Label("x")
	f.Label("x")
	f.HaltImm(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("err = %v", err)
	}

	// Bad entry.
	b = asm.NewBuilder("t")
	b.Func("main", 0).HaltImm(0)
	b.SetEntry("nope")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "entry function") {
		t.Fatalf("err = %v", err)
	}

	// Empty program.
	if _, err := asm.NewBuilder("t").Build(); err == nil {
		t.Fatal("empty program built")
	}

	// Too many args.
	b = asm.NewBuilder("t")
	b.Func("huge", 9).HaltImm(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterExhaustion(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	for i := 0; i < 80; i++ {
		f.Reg()
	}
	f.HaltImm(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "out of registers") {
		t.Fatalf("err = %v", err)
	}
}

func TestArgOutOfRange(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main", 1)
	f.Arg(3)
	f.HaltImm(0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Arg out of range not reported")
	}
}

func TestMultiFunctionLabelIsolation(t *testing.T) {
	// The same label name in two functions must not collide.
	b := asm.NewBuilder("t")
	g := b.Func("g", 0)
	g.Label("top")
	g.RetImm(7)
	f := b.Func("main", 0)
	f.Label("top")
	f.Call("g")
	f.Halt(asm.RetReg)
	b.SetEntry("main")
	if got := runMain(t, b); got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

func TestDisassembleListsFunctions(t *testing.T) {
	b := asm.NewBuilder("prog")
	g := b.Func("helper", 2)
	g.RetImm(0)
	f := b.Func("main", 0)
	f.HaltImm(0)
	b.SetEntry("main")
	prog := b.MustBuild()
	dis := asm.Disassemble(prog)
	for _, want := range []string{"helper(2 args)", "main(0 args) (entry)", "halt", "ret"} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	f.Jump("missing")
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	b.MustBuild()
}

func TestConstAndRegs(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	rs := f.Regs(3)
	c := f.Const(5)
	f.Add(rs[0], c, c)
	f.Add(rs[1], rs[0], c)
	f.Add(rs[2], rs[1], rs[0])
	f.Halt(rs[2]) // 10+5+10 = 25
	if got := runMain(t, b); got != 25 {
		t.Fatalf("got %d, want 25", got)
	}
}

func TestListingAndContext(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	i := f.Reg()
	f.Movi(i, 0)
	f.ForLtImm(i, 3, func() {})
	f.HaltImm(0)
	g := b.Func("helper", 1)
	g.RetImm(0)
	prog := b.MustBuild()

	lst := asm.Listing(prog, map[int][]string{1: {"loop head"}})
	for _, want := range []string{"main(0 args) (entry):", "helper(1 args):", "jmp L", "; ^ loop head", "halt"} {
		if !strings.Contains(lst, want) {
			t.Fatalf("listing lacks %q:\n%s", want, lst)
		}
	}
	if lst != asm.Listing(prog, map[int][]string{1: {"loop head"}}) {
		t.Fatal("listing not deterministic")
	}

	ctx := asm.Context(prog, 2, 1)
	if !strings.Contains(ctx, "-> ") {
		t.Fatalf("context lacks the pc marker:\n%s", ctx)
	}
	if got := strings.Count(ctx, "\n"); got > 3 {
		t.Fatalf("context radius 1 printed %d lines:\n%s", got, ctx)
	}
}
