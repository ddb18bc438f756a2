package asm_test

import (
	"math/rand"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/vm"
)

// The stdlib routines' names, for Call sites.
const (
	stdMemcpy   = "std.memcpy"
	stdMemset   = "std.memset"
	stdMemcmp   = "std.memcmp"
	stdSum      = "std.sum"
	stdMax      = "std.max"
	stdFillLCG  = "std.fill_lcg"
	stdChecksum = "std.checksum"
	stdBsearch  = "std.bsearch"
)

// stdProg builds a program with the stdlib installed and a main emitted by
// body; it returns main's exit value.
func stdProg(t *testing.T, data []vm.Word, body func(f *asm.Func, base asm.Reg)) vm.Word {
	t.Helper()
	b := asm.NewBuilder("std")
	addr := b.Words(data...)
	asm.InstallStdlib(b)
	f := b.Func("main", 0)
	base := f.Const(addr)
	body(f, base)
	b.SetEntry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(prog, nil, nil)
	for steps := 0; !m.Done(); steps++ {
		if steps > 5_000_000 {
			t.Fatal("livelock")
		}
		m.Step(m.Threads[0])
	}
	if m.FaultCount() != 0 {
		t.Fatalf("faults: %v", m.Faults())
	}
	return m.Threads[0].ExitVal
}

func TestStdMemcpyMemcmp(t *testing.T) {
	got := stdProg(t, []vm.Word{5, 6, 7, 0, 0, 0}, func(f *asm.Func, base asm.Reg) {
		dst, n := f.Reg(), f.Const(3)
		f.Addi(dst, base, 3)
		f.Call(stdMemcpy, dst, base, n)
		f.Call(stdMemcmp, base, dst, n)
		f.Halt(asm.RetReg) // -1: equal
	})
	if got != -1 {
		t.Fatalf("memcmp after memcpy = %d, want -1", got)
	}

	got = stdProg(t, []vm.Word{5, 6, 7, 5, 9, 7}, func(f *asm.Func, base asm.Reg) {
		other, n := f.Reg(), f.Const(3)
		f.Addi(other, base, 3)
		f.Call(stdMemcmp, base, other, n)
		f.Halt(asm.RetReg)
	})
	if got != 1 {
		t.Fatalf("memcmp first-diff index = %d, want 1", got)
	}
}

func TestStdMemsetSumMax(t *testing.T) {
	got := stdProg(t, make([]vm.Word, 10), func(f *asm.Func, base asm.Reg) {
		val, n := f.Const(7), f.Const(10)
		f.Call(stdMemset, base, val, n)
		f.Call(stdSum, base, n)
		sum := f.Reg()
		f.Mov(sum, asm.RetReg)
		f.Call(stdMax, base, n)
		f.Add(sum, sum, asm.RetReg)
		f.Halt(sum) // 70 + 7
	})
	if got != 77 {
		t.Fatalf("memset/sum/max = %d, want 77", got)
	}
}

func TestStdFillLCGDeterministic(t *testing.T) {
	run := func() vm.Word {
		return stdProg(t, make([]vm.Word, 32), func(f *asm.Func, base asm.Reg) {
			n, seed := f.Const(32), f.Const(99)
			f.Call(stdFillLCG, base, n, seed)
			f.Call(stdChecksum, base, n)
			f.Halt(asm.RetReg)
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("fill_lcg not deterministic")
	}
	// Different seed, different contents.
	c := stdProg(t, make([]vm.Word, 32), func(f *asm.Func, base asm.Reg) {
		n, seed := f.Const(32), f.Const(100)
		f.Call(stdFillLCG, base, n, seed)
		f.Call(stdChecksum, base, n)
		f.Halt(asm.RetReg)
	})
	if a == c {
		t.Fatal("different seeds, same stream")
	}
}

func TestStdBsearchMatchesHost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]vm.Word, 40)
	v := vm.Word(0)
	for i := range data {
		v += vm.Word(1 + rng.Intn(5))
		data[i] = v
	}
	hostSearch := func(key vm.Word) vm.Word {
		for i, d := range data {
			if d == key {
				return vm.Word(i)
			}
		}
		return -1
	}
	for trial := 0; trial < 12; trial++ {
		key := data[rng.Intn(len(data))]
		if trial%3 == 0 {
			key++ // often absent
		}
		got := stdProg(t, data, func(f *asm.Func, base asm.Reg) {
			n, k := f.Const(vm.Word(len(data))), f.Const(key)
			f.Call(stdBsearch, base, n, k)
			f.Halt(asm.RetReg)
		})
		want := hostSearch(key)
		// Any index holding the key is acceptable; with strictly
		// increasing data the index is unique, so compare directly.
		if got != want {
			t.Fatalf("bsearch(%d) = %d, want %d", key, got, want)
		}
	}
}

func TestStdChecksumOrderSensitive(t *testing.T) {
	a := stdProg(t, []vm.Word{1, 2, 3}, func(f *asm.Func, base asm.Reg) {
		n := f.Const(3)
		f.Call(stdChecksum, base, n)
		f.Halt(asm.RetReg)
	})
	b := stdProg(t, []vm.Word{3, 2, 1}, func(f *asm.Func, base asm.Reg) {
		n := f.Const(3)
		f.Call(stdChecksum, base, n)
		f.Halt(asm.RetReg)
	})
	if a == b {
		t.Fatal("checksum is order-insensitive")
	}
}
