package simos_test

import (
	"runtime"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// runWith executes a single-threaded program against a world and returns
// the machine.
func runWith(t *testing.T, w *simos.World, build func(f *asm.Func, b *asm.Builder)) *vm.Machine {
	t.Helper()
	b := asm.NewBuilder("t")
	f := b.Func("main", 0)
	build(f, b)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(prog, simos.NewOS(w), nil)
	u := sched.NewUni(m)
	if err := u.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFileOpenReadCloseEOF(t *testing.T) {
	w := simos.NewWorld(1)
	w.AddFile("data", []vm.Word{10, 20, 30, 40, 50})
	m := runWith(t, w, func(f *asm.Func, b *asm.Builder) {
		nameAddr, nameLen := b.Str("data")
		na, nl := f.Const(nameAddr), f.Const(nameLen)
		fd, buf, n, sum, i, v, c := f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg()
		two := f.Const(2)
		f.Sys(simos.SysOpen, na, nl)
		f.Mov(fd, asm.RetReg)
		f.Sys(simos.SysFileSize, fd)
		f.Mov(sum, asm.RetReg) // 5
		f.Sys(simos.SysAlloc, two)
		f.Mov(buf, asm.RetReg)
		// Read in chunks of 2 until EOF, summing contents.
		f.While(func() asm.Reg {
			f.Sys(simos.SysRead, fd, buf, two)
			f.Mov(n, asm.RetReg)
			f.Snei(c, n, 0)
			return c
		}, func() {
			f.Movi(i, 0)
			f.ForLt(i, n, func() {
				f.Ldx(v, buf, i)
				f.Add(sum, sum, v)
			})
		})
		f.Sys(simos.SysClose, fd)
		f.Halt(sum) // 5 + 150
	})
	if got := m.Threads[0].ExitVal; got != 155 {
		t.Fatalf("got %d, want 155", got)
	}
}

func TestOpenMissingFileReturnsMinusOne(t *testing.T) {
	w := simos.NewWorld(1)
	m := runWith(t, w, func(f *asm.Func, b *asm.Builder) {
		nameAddr, nameLen := b.Str("ghost")
		na, nl := f.Const(nameAddr), f.Const(nameLen)
		f.Sys(simos.SysOpen, na, nl)
		f.Halt(asm.RetReg)
	})
	if got := m.Threads[0].ExitVal; got != -1 {
		t.Fatalf("got %d, want -1", got)
	}
}

// A syscall the OS cannot service is an error the guest reads, not a
// fault: the thread gets -1 and runs on.
func TestUseClosedFdReturnsMinusOne(t *testing.T) {
	w := simos.NewWorld(1)
	w.AddFile("f", []vm.Word{1})
	m := runWith(t, w, func(f *asm.Func, b *asm.Builder) {
		nameAddr, nameLen := b.Str("f")
		na, nl := f.Const(nameAddr), f.Const(nameLen)
		fd := f.Reg()
		f.Sys(simos.SysOpen, na, nl)
		f.Mov(fd, asm.RetReg)
		f.Sys(simos.SysClose, fd)
		f.Sys(simos.SysFileSize, fd)
		f.Halt(asm.RetReg)
	})
	if th := m.Threads[0]; m.FaultCount() != 0 || th.ExitVal != -1 {
		t.Fatalf("file size of a closed fd: exit %d, %v; want -1 and no fault", th.ExitVal, m.Faults())
	}
}

func TestAllocBumpsAndIsDisjoint(t *testing.T) {
	w := simos.NewWorld(1)
	m := runWith(t, w, func(f *asm.Func, b *asm.Builder) {
		n := f.Const(10)
		a1, a2, d := f.Reg(), f.Reg(), f.Reg()
		f.Sys(simos.SysAlloc, n)
		f.Mov(a1, asm.RetReg)
		f.Sys(simos.SysAlloc, n)
		f.Mov(a2, asm.RetReg)
		f.Sub(d, a2, a1)
		f.Halt(d)
	})
	if got := m.Threads[0].ExitVal; got != 10 {
		t.Fatalf("alloc gap = %d, want 10", got)
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	get := func(seed int64) vm.Word {
		m := runWith(t, simos.NewWorld(seed), func(f *asm.Func, b *asm.Builder) {
			f.Sys(simos.SysRand)
			f.Halt(asm.RetReg)
		})
		return m.Threads[0].ExitVal
	}
	if get(5) != get(5) {
		t.Fatal("same seed, different rand")
	}
	if get(5) == get(6) {
		t.Fatal("different seeds agree (suspicious)")
	}
}

func TestAcceptRecvScriptedClients(t *testing.T) {
	w := simos.NewWorld(1)
	w.AddConn(100, []simos.Request{
		{AvailAt: 100, Data: []vm.Word{7, 8}},
		{AvailAt: 300, Data: []vm.Word{9}},
	})
	m := runWith(t, w, func(f *asm.Func, b *asm.Builder) {
		lfd := f.Const(0)
		buf := f.Reg()
		four := f.Const(4)
		cfd, n, sum, i, v, c := f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg()
		f.Sys(simos.SysAlloc, four)
		f.Mov(buf, asm.RetReg)
		f.Sys(simos.SysListen)
		f.Sys(simos.SysAccept, lfd)
		f.Mov(cfd, asm.RetReg)
		f.Movi(sum, 0)
		f.While(func() asm.Reg {
			f.Sys(simos.SysRecv, cfd, buf, four)
			f.Mov(n, asm.RetReg)
			f.Snei(c, n, 0)
			return c
		}, func() {
			f.Movi(i, 0)
			f.ForLt(i, n, func() {
				f.Ldx(v, buf, i)
				f.Add(sum, sum, v)
			})
		})
		// Accept again: script exhausted -> -1.
		f.Sys(simos.SysAccept, lfd)
		f.Add(sum, sum, asm.RetReg)
		f.Halt(sum) // 7+8+9-1 = 23
	})
	if got := m.Threads[0].ExitVal; got != 23 {
		t.Fatalf("got %d, want 23", got)
	}
}

func TestFetchRespectsLatencyAndBounds(t *testing.T) {
	w := simos.NewWorld(1)
	w.SetFetchSource([]vm.Word{1, 2, 3, 4, 5, 6}, 500)
	m := runWith(t, w, func(f *asm.Func, b *asm.Builder) {
		buf := f.Reg()
		ten := f.Const(10)
		off, n, got := f.Reg(), f.Reg(), f.Reg()
		f.Sys(simos.SysAlloc, ten)
		f.Mov(buf, asm.RetReg)
		f.Sys(simos.SysFetchLen)
		f.Mov(got, asm.RetReg) // 6
		f.Movi(off, 4)
		f.Movi(n, 10) // over-long request is truncated
		f.Sys(simos.SysFetch, off, n, buf)
		f.Add(got, got, asm.RetReg) // +2
		v := f.Reg()
		f.Ld(v, buf, 0)
		f.Add(got, got, v) // +5
		f.Ld(v, buf, 1)
		f.Add(got, got, v) // +6
		f.Halt(got)        // 19
	})
	if got := m.Threads[0].ExitVal; got != 19 {
		t.Fatalf("got %d, want 19", got)
	}
}

func TestOutputHashTracksCommits(t *testing.T) {
	w := simos.NewWorld(1)
	if w.OutputHash() != 0 || w.OutputWords() != 0 {
		t.Fatal("fresh world has output")
	}
	runWith(t, w, func(f *asm.Func, b *asm.Builder) {
		addr := b.Words(11, 22, 33)
		a := f.Const(addr)
		n := f.Const(3)
		f.Sys(simos.SysPrint, a, n)
		f.HaltImm(0)
	})
	if w.OutputWords() != 3 || w.OutputHash() == 0 {
		t.Fatalf("output: %d words, hash %x", w.OutputWords(), w.OutputHash())
	}

	// Same output -> same hash; different output -> different hash.
	w2 := simos.NewWorld(1)
	runWith(t, w2, func(f *asm.Func, b *asm.Builder) {
		addr := b.Words(11, 22, 33)
		a := f.Const(addr)
		n := f.Const(3)
		f.Sys(simos.SysPrint, a, n)
		f.HaltImm(0)
	})
	if w2.OutputHash() != w.OutputHash() {
		t.Fatal("identical output hashed differently")
	}
	w3 := simos.NewWorld(1)
	runWith(t, w3, func(f *asm.Func, b *asm.Builder) {
		addr := b.Words(11, 22, 34)
		a := f.Const(addr)
		n := f.Const(3)
		f.Sys(simos.SysPrint, a, n)
		f.HaltImm(0)
	})
	if w3.OutputHash() == w.OutputHash() {
		t.Fatal("different output hashed equal")
	}
}

func TestCloneIsolatesMutableState(t *testing.T) {
	w := simos.NewWorld(1)
	w.AddFile("f", []vm.Word{1, 2, 3})
	w.AddConn(0, []simos.Request{{AvailAt: 0, Data: []vm.Word{5}}})

	clone := w.Clone()

	// Drive the original: open the file, read a word, accept the client.
	runWith(t, w, func(f *asm.Func, b *asm.Builder) {
		nameAddr, nameLen := b.Str("f")
		na, nl := f.Const(nameAddr), f.Const(nameLen)
		one := f.Const(1)
		lfd := f.Const(0)
		buf, fd := f.Reg(), f.Reg()
		f.Sys(simos.SysAlloc, one)
		f.Mov(buf, asm.RetReg)
		f.Sys(simos.SysOpen, na, nl)
		f.Mov(fd, asm.RetReg)
		f.Sys(simos.SysRead, fd, buf, one)
		f.Sys(simos.SysAccept, lfd)
		f.Sys(simos.SysPrint, buf, one)
		f.HaltImm(0)
	})
	if w.OutputWords() == 0 {
		t.Fatal("original world unchanged")
	}

	// The clone still sees a fresh world: accept works, no output.
	if clone.OutputWords() != 0 {
		t.Fatal("clone observed the original's output")
	}
	m := runWith(t, clone, func(f *asm.Func, b *asm.Builder) {
		lfd := f.Const(0)
		f.Sys(simos.SysAccept, lfd)
		f.Halt(asm.RetReg)
	})
	if got := m.Threads[0].ExitVal; got != 0 {
		t.Fatalf("clone accept = %d, want fresh fd 0", got)
	}
}

func TestEncodeString(t *testing.T) {
	ws := simos.EncodeString("ab")
	if len(ws) != 2 || ws[0] != 'a' || ws[1] != 'b' {
		t.Fatalf("EncodeString = %v", ws)
	}
}

func TestUnknownSyscallReturnsMinusOne(t *testing.T) {
	m := runWith(t, simos.NewWorld(1), func(f *asm.Func, b *asm.Builder) {
		f.Sys(9999)
		f.Halt(asm.RetReg)
	})
	if th := m.Threads[0]; m.FaultCount() != 0 || th.ExitVal != -1 {
		t.Fatalf("unknown syscall: exit %d, %v; want -1 and no fault", th.ExitVal, m.Faults())
	}
}

// host issues syscalls straight to a world's OS from a bare machine whose
// memory holds the file name "f" at nameAddr.
type host struct {
	m  *vm.Machine
	os *simos.OS
}

const nameAddr vm.Word = 1 << 20

func newHost(w *simos.World) host {
	b := asm.NewBuilder("t")
	b.Func("main", 0).HaltImm(0)
	m := vm.NewMachine(b.MustBuild(), nil, nil)
	m.Mem.Store(nameAddr, 'f')
	return host{m: m, os: simos.NewOS(w)}
}

func (h host) sys(num vm.Word, args ...vm.Word) vm.SysResult {
	var a [6]vm.Word
	copy(a[:], args)
	return h.os.Syscall(h.m, h.m.Threads[0], num, a)
}

// cloneBytes is what one Clone of w allocates, averaged over many.
func cloneBytes(w *simos.World) uint64 {
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		w.Clone()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// TestCloneCopiesLiveStateOnly holds World.Clone to the state that can
// still change: its cost does not grow with fds a run has closed or
// connections whose script it has read to the end, a clone does not see
// what the original does afterwards, and a call on a bad or closed fd
// still returns -1 and writes nothing.
func TestCloneCopiesLiveStateOnly(t *testing.T) {
	const pairs, served = 1000, 1000
	w := simos.NewWorld(1)
	w.AddFile("f", []vm.Word{1, 2, 3})
	w.AddConn(0, []simos.Request{{Data: []vm.Word{7}}, {Data: []vm.Word{8}}})
	for i := 0; i < served+1; i++ {
		w.AddConn(0, []simos.Request{{Data: []vm.Word{9}}})
	}
	h := newHost(w)
	live := h.sys(simos.SysAccept, 0).Ret
	fd := h.sys(simos.SysOpen, nameAddr, 1).Ret
	base := cloneBytes(w)

	for i := 0; i < pairs; i++ {
		h.sys(simos.SysClose, h.sys(simos.SysOpen, nameAddr, 1).Ret)
	}
	for i := 0; i < served; i++ {
		c := h.sys(simos.SysAccept, 0).Ret
		h.sys(simos.SysRecv, c, 0, 4)
		if r := h.sys(simos.SysRecv, c, 0, 4); r.Ret != 0 || r.Writes != nil {
			t.Fatalf("recv on served connection %d = %+v, want EOF", c, r)
		}
	}
	if got := cloneBytes(w); got > base+base/10 {
		t.Fatalf("a clone allocates %d bytes after %d open/close pairs and %d served connections, %d before",
			got, pairs, served, base)
	}

	// The original reads, closes, receives and accepts after the clone;
	// the clone sees none of it.
	c := w.Clone()
	h.sys(simos.SysRead, fd, 0, 1)
	h.sys(simos.SysClose, fd)
	h.sys(simos.SysRecv, live, 0, 4)
	next := h.sys(simos.SysAccept, 0).Ret
	hc := newHost(c)
	if r := hc.sys(simos.SysRead, fd, 0, 1); r.Ret != 1 || r.Writes[0].Data[0] != 1 {
		t.Fatalf("clone read of fd %d = %+v, want word 1", fd, r)
	}
	if r := hc.sys(simos.SysRecv, live, 0, 4); r.Ret != 1 || r.Writes[0].Data[0] != 7 {
		t.Fatalf("clone recv on connection %d = %+v, want word 7", live, r)
	}
	if got := hc.sys(simos.SysAccept, 0).Ret; got != next {
		t.Fatalf("clone accept = %d, original's = %d", got, next)
	}

	for _, tc := range []struct {
		name     string
		num, arg vm.Word
	}{
		{"read of fd -1", simos.SysRead, -1},
		{"read of an fd never opened", simos.SysRead, fd + pairs + 1},
		{"read of a closed fd", simos.SysRead, fd},
		{"close of a closed fd", simos.SysClose, fd + 1},
		{"size of a closed fd", simos.SysFileSize, fd + pairs},
		{"recv on a connection never accepted", simos.SysRecv, next + 1},
	} {
		if r := h.sys(tc.num, tc.arg, 0, 1); r.Ret != -1 || r.Writes != nil || r.Block {
			t.Errorf("%s (fd %d) = %+v, want -1", tc.name, tc.arg, r)
		}
	}
}
