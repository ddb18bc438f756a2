package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/profile"
	"doubleplay/internal/vm"
)

// run drives a machine round-robin until every thread terminates.
func run(t testing.TB, m *vm.Machine) {
	t.Helper()
	for steps := 0; !m.Done(); steps++ {
		if steps > 5_000_000 {
			t.Fatalf("livelock:\n%s", m.DescribeState())
		}
		for _, th := range m.Threads {
			if th.Status.Live() {
				m.Step(th)
			}
		}
	}
}

// buildCallers builds a program whose shape the attribution tests know:
// main spins a little itself, then calls inner directly and via outer.
func buildCallers(t testing.TB) *vm.Program {
	t.Helper()
	b := asm.NewBuilder("callers")

	inner := b.Func("inner", 1)
	{
		n, one := inner.Reg(), inner.Reg()
		inner.Mov(n, asm.Reg(1))
		inner.Movi(one, 1)
		inner.Label("loop")
		inner.Sub(n, n, one)
		inner.Jnz(n, "loop")
		inner.RetImm(0)
	}

	outer := b.Func("outer", 1)
	{
		a := outer.Reg()
		outer.Mov(a, asm.Reg(1))
		outer.Call("inner", a)
		outer.RetImm(0)
	}

	f := b.Func("main", 0)
	{
		n, one, arg := f.Reg(), f.Reg(), f.Reg()
		f.Movi(n, 8)
		f.Movi(one, 1)
		f.Label("spin")
		f.Sub(n, n, one)
		f.Jnz(n, "spin")
		f.Movi(arg, 16)
		f.Call("inner", arg)
		f.Movi(arg, 32)
		f.Call("outer", arg)
		f.HaltImm(0)
	}
	b.SetEntry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// profileCallers runs the callers program under a fresh profiler.
func profileCallers(t testing.TB) *profile.Profile {
	t.Helper()
	prog := buildCallers(t)
	m := vm.NewMachine(prog, nil, nil)
	p := profile.New(prog)
	p.Attach(m)
	run(t, m)
	return p.Snapshot()
}

func keys(m map[string]*profile.Sample) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func stacks(p *profile.Profile) map[string]*profile.Sample {
	out := make(map[string]*profile.Sample)
	for _, s := range p.Samples() {
		out[strings.Join(s.Stack, ";")] = s
	}
	return out
}

func TestAttributionFollowsCallStack(t *testing.T) {
	byStack := stacks(profileCallers(t))
	for _, want := range []string{"main", "main;inner", "main;outer", "main;outer;inner"} {
		s := byStack[want]
		if s == nil {
			t.Fatalf("no sample for stack %q (have %v)", want, keys(byStack))
		}
		if s.Cycles <= 0 || s.Instrs <= 0 {
			t.Fatalf("stack %q has empty charge: %+v", want, s)
		}
	}
	if len(byStack) != 4 {
		t.Fatalf("got %d stacks, want 4: %v", len(byStack), keys(byStack))
	}
	// inner(32) under outer retires twice the loop iterations of inner(16)
	// under main, so it must cost strictly more.
	if byStack["main;outer;inner"].Cycles <= byStack["main;inner"].Cycles {
		t.Fatalf("inner(32) not costlier than inner(16): %d vs %d",
			byStack["main;outer;inner"].Cycles, byStack["main;inner"].Cycles)
	}
}

func TestProfileTotalsMatchMachineWork(t *testing.T) {
	prog := buildCallers(t)
	m := vm.NewMachine(prog, nil, nil)
	p := profile.New(prog)
	p.Attach(m)
	run(t, m)
	prof := p.Snapshot()
	// Every retired instruction is charged somewhere, exactly once.
	if got, want := prof.TotalInstrs(), int64(m.Threads[0].Retired); got != want {
		t.Fatalf("profiled %d instructions, machine retired %d", got, want)
	}
}

func TestSnapshotIsCumulativeAndIsolated(t *testing.T) {
	prog := buildCallers(t)
	m := vm.NewMachine(prog, nil, nil)
	p := profile.New(prog)
	p.Attach(m)
	run(t, m)
	a, b := p.Snapshot(), p.Snapshot()
	if !bytes.Equal(a.MarshalPprof(), b.MarshalPprof()) {
		t.Fatal("two snapshots of an idle profiler differ")
	}
	// Mutating one snapshot must not leak into the other.
	a.Merge(a)
	if bytes.Equal(a.MarshalPprof(), b.MarshalPprof()) {
		t.Fatal("snapshots share state")
	}
}

func TestMergeOrderIndependence(t *testing.T) {
	mk := func() *profile.Profile {
		p := profile.NewProfile("callers")
		p2 := profileCallers(t)
		p.Merge(p2)
		return p
	}
	a, b := mk(), mk()

	x := profile.NewProfile("")
	x.Merge(a)
	x.Merge(b)
	y := profile.NewProfile("")
	y.Merge(b)
	y.Merge(a)
	if !bytes.Equal(x.MarshalPprof(), y.MarshalPprof()) {
		t.Fatal("merge order changed the serialised profile")
	}
	if x.TotalCycles() != 2*a.TotalCycles() {
		t.Fatalf("merged cycles %d, want %d", x.TotalCycles(), 2*a.TotalCycles())
	}
}

func TestFoldedOutputSortedAndParseable(t *testing.T) {
	prof := profileCallers(t)
	var buf bytes.Buffer
	if err := prof.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != prof.NumSamples() {
		t.Fatalf("%d folded lines for %d stacks", len(lines), prof.NumSamples())
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("folded output not sorted: %q then %q", lines[i-1], lines[i])
		}
	}
	for _, ln := range lines {
		if !strings.Contains(ln, " ") || !strings.HasPrefix(ln, "main") {
			t.Fatalf("malformed folded line %q", ln)
		}
	}
}

func TestPprofRoundTrip(t *testing.T) {
	prof := profileCallers(t)
	prof.Name = "callers"
	data := prof.MarshalPprof()

	back, err := profile.ParsePprof(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "callers" {
		t.Fatalf("program name %q after round trip", back.Name)
	}
	if !bytes.Equal(back.MarshalPprof(), data) {
		t.Fatal("re-marshalled profile differs from original bytes")
	}
	want, got := stacks(prof), stacks(back)
	if len(want) != len(got) {
		t.Fatalf("%d stacks after round trip, want %d", len(got), len(want))
	}
	for k, s := range want {
		g := got[k]
		if g == nil || g.Cycles != s.Cycles || g.Instrs != s.Instrs {
			t.Fatalf("stack %q: got %+v, want %+v", k, g, s)
		}
	}
}

func TestParsePprofRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("not a protobuf"),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, err := profile.ParsePprof(data); err == nil {
			t.Fatalf("ParsePprof(%q) accepted garbage", data)
		}
	}
}

func TestTopAggregatesSelfAndCumulative(t *testing.T) {
	prof := profileCallers(t)
	rows := prof.Top(0)
	byFn := make(map[string]profile.TopRow)
	var selfSum int64
	for _, r := range rows {
		byFn[r.Func] = r
		selfSum += r.Self
	}
	if selfSum != prof.TotalCycles() {
		t.Fatalf("self cycles sum %d, total %d", selfSum, prof.TotalCycles())
	}
	// main appears in every stack, so its cumulative share is everything.
	if byFn["main"].Cum != prof.TotalCycles() {
		t.Fatalf("main cum %d, want total %d", byFn["main"].Cum, prof.TotalCycles())
	}
	// inner is a leaf in two stacks; its cum equals its self charge.
	if in := byFn["inner"]; in.Cum != in.Self || in.Self <= 0 {
		t.Fatalf("inner rows: %+v", in)
	}
	if top1 := prof.Top(1); len(top1) != 1 {
		t.Fatalf("Top(1) returned %d rows", len(top1))
	}

	var buf bytes.Buffer
	if err := prof.RenderTop(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "function") || !strings.Contains(buf.String(), "main") {
		t.Fatalf("RenderTop output missing expected rows:\n%s", buf.String())
	}
}
