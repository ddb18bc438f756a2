package server_test

import (
	"context"
	"fmt"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/server"
)

// TestRecordSpecFields records through server.Record, the one place a
// Spec becomes core.Options, with and without one recorder field set per
// row, and holds each field to an effect on the recording. A field Record
// forgot to map would record the base spec twice.
func TestRecordSpecFields(t *testing.T) {
	for _, tc := range []struct {
		name  string
		base  server.Spec
		set   func(*server.Spec)
		check func(got, base *core.Result) string
	}{
		{"detect_races reports racey's races",
			server.Spec{Workload: "racey", Workers: 2},
			func(sp *server.Spec) { sp.DetectRaces = true },
			func(got, base *core.Result) string {
				if len(got.Races) == 0 || base.Races != nil {
					return fmt.Sprintf("%d races detected, %d without the detector", len(got.Races), len(base.Races))
				}
				return ""
			}},
		{"growth 2 records fewer epochs than growth 1",
			server.Spec{Workload: "pbzip", Workers: 2, Growth: 1},
			func(sp *server.Spec) { sp.Growth = 2 },
			func(got, base *core.Result) string {
				if got.Stats.Epochs >= base.Stats.Epochs {
					return fmt.Sprintf("%d epochs at growth 2, %d at growth 1", got.Stats.Epochs, base.Stats.Epochs)
				}
				return ""
			}},
		{"epoch_cycles shortens every epoch",
			server.Spec{Workload: "pbzip", Workers: 2},
			func(sp *server.Spec) { sp.EpochCycles = core.DefaultEpochCycles / 4 },
			func(got, base *core.Result) string {
				if got.Stats.Epochs <= base.Stats.Epochs {
					return fmt.Sprintf("%d epochs at a quarter of the default length, %d at the default", got.Stats.Epochs, base.Stats.Epochs)
				}
				return ""
			}},
		{"verify_policy certified skips sigping's verification",
			server.Spec{Workload: "sigping", Workers: 2},
			func(sp *server.Spec) { sp.VerifyPolicy = "certified" },
			func(got, base *core.Result) string {
				if s := got.Stats; s.CertStatus != "race-free" || s.VerifySkipped == 0 || s.VerifySkipped != s.Epochs || base.Stats.VerifySkipped != 0 {
					return fmt.Sprintf("certificate %q, %d of %d epochs skipped; %d skipped under always",
						s.CertStatus, s.VerifySkipped, s.Epochs, base.Stats.VerifySkipped)
				}
				return ""
			}},
		{"max_spares bounds the adaptive controller",
			server.Spec{Workload: "pbzip", Workers: 4, Spares: 1, Adaptive: true, MinSpares: 1, MaxSpares: 1},
			func(sp *server.Spec) { sp.MaxSpares = 4 },
			func(got, base *core.Result) string {
				if g, b := got.Stats, base.Stats; g.SpareGrows == 0 || g.ActiveSpares < 2 || g.ActiveSpares > 4 || b.SpareGrows != 0 || b.ActiveSpares != 1 {
					return fmt.Sprintf("max 4: %d grows, %d active; max 1: %d grows, %d active",
						g.SpareGrows, g.ActiveSpares, b.SpareGrows, b.ActiveSpares)
				}
				return ""
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.base
			tc.set(&sp)
			var res [2]*core.Result
			for i, sp := range []server.Spec{sp, tc.base} {
				r, _, err := server.Record(context.Background(), sp, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				r.ReleaseCheckpoints()
				res[i] = r
			}
			if msg := tc.check(res[0], res[1]); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}
