package core

import (
	"bytes"
	"errors"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/simos"
)

func TestParseVerifyPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want VerifyPolicy
	}{
		{"", VerifyAlways},
		{"always", VerifyAlways},
		{"certified", VerifyCertified},
	} {
		got, err := ParseVerifyPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseVerifyPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseVerifyPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestCertifiedRecordSkipsVerification is the headline property: a
// race-free program under VerifyCertified commits every epoch without the
// epoch-parallel pass, and the certified recording replays to the same
// final state as a fully verified recording of the same seed.
func TestCertifiedRecordSkipsVerification(t *testing.T) {
	prog, ok := lockedCounterProg(3, 300)
	base := Options{Workers: 3, SpareCPUs: 4, EpochCycles: 3000, Seed: 42}

	always := recordAndCheck(t, prog, ok, base)

	opt := base
	opt.VerifyPolicy = VerifyCertified
	cert := recordAndCheck(t, prog, ok, opt)

	st := cert.Stats
	if st.CertStatus != "race-free" || st.VerifyFallback != "" {
		t.Fatalf("cert status %q fallback %q", st.CertStatus, st.VerifyFallback)
	}
	if cert.Certificate == nil || !cert.Certificate.RaceFree() {
		t.Fatalf("Result.Certificate = %v", cert.Certificate)
	}
	if st.VerifySkipped == 0 || st.VerifySkipped != st.Epochs {
		t.Fatalf("VerifySkipped = %d of %d epochs", st.VerifySkipped, st.Epochs)
	}
	if st.Divergences != 0 || st.Slices != 0 || st.EpochSerialCycles != 0 {
		t.Fatalf("certified run did verification work: %+v", st)
	}
	for i, ep := range cert.Recording.Epochs {
		if !ep.Certified || ep.Schedule != nil {
			t.Fatalf("epoch %d: certified=%v schedule=%v", i, ep.Certified, ep.Schedule)
		}
	}
	// No pipeline occupancy: recording completes with the guest.
	if st.CompletionCycles != st.ThreadParallelCycles {
		t.Fatalf("completion %d != thread-parallel %d", st.CompletionCycles, st.ThreadParallelCycles)
	}
	if st.CompletionCycles >= always.Stats.CompletionCycles {
		t.Fatalf("no overhead win: certified %d vs always %d",
			st.CompletionCycles, always.Stats.CompletionCycles)
	}

	// Same guest, same seed: both recordings must describe the same
	// execution, and the certified one must replay to it bit-identically.
	if cert.FinalHash != always.FinalHash || cert.OutputHash != always.OutputHash {
		t.Fatal("certified recording describes a different execution")
	}
	seq, err := replay.Sequential(prog, cert.Recording, nil, nil)
	if err != nil {
		t.Fatalf("Sequential replay of certified recording: %v", err)
	}
	if seq.FinalHash != always.FinalHash {
		t.Fatal("certified replay diverged from the verified recording")
	}
	par, err := replayFrom(prog, cert.Recording, cert.Boundaries, 4)
	if err != nil {
		t.Fatalf("Parallel replay of certified recording: %v", err)
	}
	if par.FinalHash != always.FinalHash {
		t.Fatal("parallel certified replay diverged")
	}
}

// TestCertifiedFallsBackOnRacy: a possibly-racy certificate must leave the
// recording byte-identical to a VerifyAlways run — the skip never engages.
func TestCertifiedFallsBackOnRacy(t *testing.T) {
	prog := racyProg(3, 400)
	base := Options{Workers: 3, SpareCPUs: 4, EpochCycles: 2500, Seed: 1}

	always, err := Record(prog, simos.NewWorld(base.Seed), base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.VerifyPolicy = VerifyCertified
	res, err := Record(prog, simos.NewWorld(base.Seed), opt)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.VerifySkipped != 0 {
		t.Fatalf("skipped verification of a racy program %d times", st.VerifySkipped)
	}
	if st.CertStatus != "possibly-racy" || st.VerifyFallback == "" {
		t.Fatalf("cert status %q fallback %q", st.CertStatus, st.VerifyFallback)
	}
	if !bytes.Equal(dplog.MarshalBytes(res.Recording), dplog.MarshalBytes(always.Recording)) {
		t.Fatal("fallback recording differs from VerifyAlways")
	}
}

// TestCertifiedFallbackOnAblations: options that need the epoch-parallel
// pass override even a race-free certificate.
func TestCertifiedFallbackOnAblations(t *testing.T) {
	prog, ok := lockedCounterProg(2, 150)
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"detect-races", func(o *Options) { o.DetectRaces = true }},
		{"no-enforcement", func(o *Options) { o.DisableSyncEnforcement = true }},
	} {
		opt := Options{Workers: 2, SpareCPUs: 2, EpochCycles: 3000, Seed: 9, VerifyPolicy: VerifyCertified}
		tc.mod(&opt)
		res, err := Record(prog, simos.NewWorld(opt.Seed), opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Stats.VerifySkipped != 0 || res.Stats.VerifyFallback == "" {
			t.Fatalf("%s: skipped=%d fallback=%q",
				tc.name, res.Stats.VerifySkipped, res.Stats.VerifyFallback)
		}
		if res.Stats.CertStatus != "race-free" {
			t.Fatalf("%s: cert status %q", tc.name, res.Stats.CertStatus)
		}
	}
	_ = ok
}

// TestCertViolationIsFatal: corrupting a certified epoch's end hash must
// surface as ErrCertViolated, not as a recoverable divergence.
func TestCertViolationIsFatal(t *testing.T) {
	prog, ok := lockedCounterProg(2, 200)
	opt := Options{Workers: 2, SpareCPUs: 2, EpochCycles: 3000, Seed: 4, VerifyPolicy: VerifyCertified}
	res := recordAndCheck(t, prog, ok, opt)
	if res.Stats.VerifySkipped == 0 {
		t.Skip("program not certified; nothing to corrupt")
	}
	res.Recording.Epochs[0].EndHash ^= 0xdead
	_, err := replay.Sequential(prog, res.Recording, nil, nil)
	if !errors.Is(err, replay.ErrCertViolated) {
		t.Fatalf("err = %v, want ErrCertViolated", err)
	}
}

// TestCertifiedAdaptiveIgnored: the controller has nothing to pace in a
// certified run and must stay disabled.
func TestCertifiedAdaptiveIgnored(t *testing.T) {
	prog, ok := lockedCounterProg(2, 200)
	opt := Options{
		Workers: 2, SpareCPUs: 3, EpochCycles: 3000, Seed: 8,
		VerifyPolicy: VerifyCertified, Adaptive: true,
	}
	res := recordAndCheck(t, prog, ok, opt)
	if res.Stats.VerifySkipped != res.Stats.Epochs {
		t.Fatalf("skip not taken under Adaptive: %+v", res.Stats)
	}
	if res.Stats.SpareGrows != 0 || res.Stats.SpareShrinks != 0 {
		t.Fatalf("controller acted in a certified run: %+v", res.Stats)
	}
}
