package core

import "fmt"

// VerifyPolicy selects how Record validates epochs.
type VerifyPolicy int

const (
	// VerifyAlways runs the epoch-parallel verification pass for every
	// epoch, exactly as in the paper. The default.
	VerifyAlways VerifyPolicy = iota

	// VerifyCertified consults the guest's static race-freedom certificate
	// (analyze.Run) before recording. When the certificate proves the
	// program race-free, every epoch commits directly from the logged
	// thread-parallel execution — no epoch-parallel pass, no comparison,
	// near-zero verification overhead — and the epoch is marked Certified
	// in the log so replay free-runs it under the recorded sync order.
	//
	// The skip is sound only because the certificate asserts that every
	// sync-order-respecting execution reaches the same boundary states;
	// replaying a certified epoch re-derives the state and treats any
	// mismatch as a fatal soundness bug (replay.ErrCertViolated), never as
	// an ordinary divergence.
	//
	// When the certificate is possibly-racy or incomplete, or the run
	// needs the epoch-parallel pass anyway (DetectRaces, or
	// DisableSyncEnforcement voiding the gate the certificate assumes),
	// recording silently falls back to full verification and reports why
	// in Stats.VerifyFallback. A certified run also ignores Adaptive —
	// there is no verification pipeline for the controller to pace.
	VerifyCertified
)

// ParseVerifyPolicy maps the CLI/server spelling of a policy ("always",
// "certified"; "" means always) to its value.
func ParseVerifyPolicy(s string) (VerifyPolicy, error) {
	switch s {
	case "", "always":
		return VerifyAlways, nil
	case "certified":
		return VerifyCertified, nil
	}
	return VerifyAlways, fmt.Errorf("core: unknown verify policy %q (want always or certified)", s)
}
