package epoch_test

import (
	"math"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/vm"
)

// TestInjectOSCursors walks one global-order syscall list through a
// sequence of calls: interleaved threads each get their own records in
// order, a thread with no records and one above every recorded tid get the
// no-counterpart divergence, and a mismatch leaves the thread's cursor
// where it was, so its next, correct call still gets the record.
func TestInjectOSCursors(t *testing.T) {
	recs := []dplog.SyscallRecord{
		{Tid: 0, Num: 1, Args: [6]vm.Word{10}, Ret: 100},
		{Tid: 2, Num: 1, Args: [6]vm.Word{20}, Ret: 200},
		{Tid: 0, Num: 2, Args: [6]vm.Word{11}, Ret: 101},
		{Tid: 0, Num: 1, Args: [6]vm.Word{12}, Ret: 102},
		{Tid: 2, Num: 3, Args: [6]vm.Word{21}, Ret: 201},
	}
	inj := epoch.NewInjectOS(recs)
	for i, c := range []struct {
		tid      int
		num      vm.Word
		arg      vm.Word
		ret      vm.Word // when diverged is empty
		diverged string
	}{
		{tid: 2, num: 1, arg: 20, ret: 200}, // a later thread's first record first
		{tid: 0, num: 1, arg: 10, ret: 100},
		{tid: 1, num: 7, diverged: "tid 1 issued syscall 7 with no recorded counterpart"},
		{tid: 0, num: 2, arg: 99, diverged: "tid 0 syscall mismatch: got num=2 args=[99 0 0 0 0 0], recorded num=2 args=[11 0 0 0 0 0]"},
		{tid: 0, num: 2, arg: 11, ret: 101}, // the mismatch did not advance tid 0
		{tid: 9, num: 1, diverged: "tid 9 issued syscall 1 with no recorded counterpart"},
		{tid: 2, num: 1, arg: 21, diverged: "tid 2 syscall mismatch: got num=1 args=[21 0 0 0 0 0], recorded num=3 args=[21 0 0 0 0 0]"},
		{tid: 2, num: 3, arg: 21, ret: 201},
		{tid: 2, num: 3, arg: 21, diverged: "tid 2 issued syscall 3 with no recorded counterpart"},
		{tid: 0, num: 1, arg: 12, ret: 102},
	} {
		m := &vm.Machine{} // only the Diverged field is touched
		res := inj.Syscall(m, &vm.Thread{ID: c.tid}, c.num, [6]vm.Word{c.arg})
		if m.Diverged != c.diverged || res.Block != (c.diverged != "") {
			t.Fatalf("call %d: diverged %q block %v, want %q", i, m.Diverged, res.Block, c.diverged)
		}
		if c.diverged == "" && res.Ret != c.ret {
			t.Fatalf("call %d: ret %d, want %d", i, res.Ret, c.ret)
		}
	}
	if inj.Injected != len(recs) || inj.Remaining() != 0 {
		t.Fatalf("injected %d remaining %d, want %d and 0", inj.Injected, inj.Remaining(), len(recs))
	}
}

// take asks sigs, as a scheduler does before a thread's next instruction,
// whether a signal is due to thread tid with retired instructions behind
// it, and takes it if one is.
func take(sigs sched.Signals, tid int, retired uint64) (vm.Word, bool) {
	sig, count, at := sigs.Next(tid)
	if at != math.MaxInt64 || count != retired {
		return 0, false
	}
	sigs.Took(tid, retired)
	return sig, true
}

// TestInjectSignalsCursors delivers two threads' signals pinned to the
// same retired counts, asked in either thread order, and checks that an
// early or repeated poll delivers nothing and that a thread never recorded
// — below or above the recorded tids — is never handed another's signal.
func TestInjectSignalsCursors(t *testing.T) {
	inj := epoch.NewInjectSignals([]dplog.SignalRecord{
		{Tid: 1, Retired: 5, Sig: 10},
		{Tid: 3, Retired: 5, Sig: 30},
		{Tid: 3, Retired: 8, Sig: 31},
		{Tid: 1, Retired: 8, Sig: 11},
	})
	for i, c := range []struct {
		tid     int
		retired uint64
		sig     vm.Word // zero: nothing pending
	}{
		{tid: 1, retired: 4},
		{tid: 3, retired: 5, sig: 30},
		{tid: 3, retired: 5}, // delivered once only
		{tid: 0, retired: 5},
		{tid: 2, retired: 5},
		{tid: 7, retired: 5},
		{tid: 1, retired: 5, sig: 10},
		{tid: 1, retired: 8, sig: 11},
		{tid: 3, retired: 8, sig: 31},
		{tid: 1, retired: 8},
	} {
		sig, ok := take(inj, c.tid, c.retired)
		if ok != (c.sig != 0) || sig != c.sig {
			t.Fatalf("poll %d (tid %d at %d): (%d, %v), want %d", i, c.tid, c.retired, sig, ok, c.sig)
		}
	}
	if inj.Injected != 4 || inj.Remaining() != 0 {
		t.Fatalf("injected %d remaining %d, want 4 and 0", inj.Injected, inj.Remaining())
	}
}
