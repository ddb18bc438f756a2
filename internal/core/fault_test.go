package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"doubleplay/internal/asm"
	"doubleplay/internal/guestgen"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
)

// faultingProg spawns a worker that divides by zero after a few thousand
// instructions, while main keeps computing and then halts without joining
// it.
func faultingProg() *vm.Program {
	b := asm.NewBuilder("fault")
	w := b.Func("worker", 1)
	{
		i, acc, zero := w.Reg(), w.Reg(), w.Const(0)
		w.Movi(i, 0)
		w.ForLtImm(i, 1000, func() { w.Addi(acc, acc, 3) })
		w.Div(acc, acc, zero)
		w.HaltImm(0)
	}
	m := b.Func("main", 0)
	{
		tid, i, acc, zero := m.Reg(), m.Reg(), m.Reg(), m.Const(0)
		m.Spawn(tid, "worker", zero)
		m.Movi(i, 0)
		m.ForLtImm(i, 20000, func() { m.Addi(acc, acc, 1) })
		m.HaltImm(0)
	}
	b.SetEntry("main")
	return b.MustBuild()
}

// faultAt parses the epoch and the thread's account out of an
// ErrGuestFault, failing the test on any other error.
func faultAt(t *testing.T, name string, err error) (epoch int, rest string) {
	t.Helper()
	if !errors.Is(err, ErrGuestFault) {
		t.Fatalf("%s: Record = %v, want ErrGuestFault", name, err)
	}
	msg := strings.TrimPrefix(err.Error(), ErrGuestFault.Error()+": ")
	if _, err := fmt.Sscanf(msg, "epoch %d,", &epoch); err != nil {
		t.Fatalf("%s: %q names no epoch: %v", name, msg, err)
	}
	_, rest, _ = strings.Cut(msg, ", ")
	return epoch, rest
}

// TestRecordFailsOnGuestFault records guests whose threads fault, which no
// log can place yet. Under VerifyCertified, Record fails at the epoch in
// which the thread faulted; under verification, within three epochs of it,
// once the run resumed from the adopted state faults the same thread on
// the same instruction again. Either way the error names the thread, its
// pc, its retired count and the fault, and names them alike. Before,
// verification adopted the fault-free state epoch after epoch until
// ErrTooManyEpochs, and a certified log failed replay with
// replay.ErrCertViolated.
func TestRecordFailsOnGuestFault(t *testing.T) {
	// The analyze corpus's seed 351: both guests certify race-free and fault.
	seed := uint64(351)
	seed351 := binary.LittleEndian.AppendUint64(nil, seed*0x9e3779b97f4a7c15+1)
	for _, tc := range []struct {
		name  string
		prog  *vm.Program
		world func() *simos.World
		opt   Options
		want  string
	}{
		{"hand-written", faultingProg(), func() *simos.World { return simos.NewWorld(1) },
			Options{Workers: 2, SpareCPUs: 2, EpochCycles: 5000, Seed: 1}, "tid 1 @pc 7 after 5004 retired: divide by zero"},
		{"generate 351", guestgen.Generate(seed351).Prog, guestgen.Generate(seed351).World,
			Options{SpareCPUs: 2, Seed: 1, EpochCycles: 2000}, ""},
		{"generate-racy 351", guestgen.GenerateRacy(seed351).Prog, guestgen.GenerateRacy(seed351).World,
			Options{SpareCPUs: 2, Seed: 1, EpochCycles: 2000}, ""},
	} {
		cert := tc.opt
		cert.VerifyPolicy = VerifyCertified
		_, err := Record(tc.prog, tc.world(), cert)
		faulted, want := faultAt(t, tc.name+" certified", err)
		if tc.want != "" && want != tc.want {
			t.Fatalf("%s: certified run names %q, want %q", tc.name, want, tc.want)
		}
		verified := tc.opt
		verified.MaxEpochs = faulted + 64
		_, err = Record(tc.prog, tc.world(), verified)
		epoch, got := faultAt(t, tc.name+" verified", err)
		if epoch < faulted || epoch > faulted+3 || got != want {
			t.Fatalf("%s: verified run fails at epoch %d naming %q; the thread faulted in epoch %d naming %q",
				tc.name, epoch, got, faulted, want)
		}
		t.Logf("%s: faulted in epoch %d, verification stops at epoch %d: %s", tc.name, faulted, epoch, got)
	}
}
