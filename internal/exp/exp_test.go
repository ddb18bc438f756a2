package exp

import (
	"bytes"
	"strings"
	"testing"
)

// quickCfg restricts experiments to a two-workload subset so the harness
// logic is exercised end to end without running the full evaluation.
func quickCfg() Config {
	return Config{Seed: 13, Workloads: []string{"kvdb", "radix"}}
}

func TestOverheadRowsSane(t *testing.T) {
	rows := overhead(quickCfg(), 2, 2)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NativeCyc <= 0 || r.RecordCyc <= r.NativeCyc {
			t.Fatalf("implausible row: %+v", r)
		}
		if r.Overhead < 0 || r.Overhead > 3 {
			t.Fatalf("overhead out of band: %+v", r)
		}
		if r.Divergences != 0 {
			t.Fatalf("race-free workload diverged: %+v", r)
		}
	}
	if m := meanOverhead(rows); m <= 0 || m > 3 {
		t.Fatalf("mean overhead %f", m)
	}
}

func TestUtilizedCostsMoreThanSpare(t *testing.T) {
	cfg := quickCfg()
	spare := meanOverhead(overhead(cfg, 2, 2))
	util := meanOverhead(overhead(cfg, 2, 0))
	if util <= spare {
		t.Fatalf("utilized (%f) not costlier than spare (%f)", util, spare)
	}
	// The utilized configuration runs both executions on the same cores:
	// expect roughly a doubling.
	if util < 0.5 || util > 2.0 {
		t.Fatalf("utilized overhead %f outside the ~2x band", util)
	}
}

func TestFourThreadsCostMoreThanTwo(t *testing.T) {
	cfg := quickCfg()
	two := meanOverhead(overhead(cfg, 2, 2))
	four := meanOverhead(overhead(cfg, 4, 4))
	if four <= two {
		t.Fatalf("4-thread overhead (%f) not above 2-thread (%f)", four, two)
	}
}

func TestLogSizeRowsSane(t *testing.T) {
	rows := logSize(quickCfg())
	for _, r := range rows {
		if r.DPBytes <= 0 || r.CrewBytes <= 0 || r.UniBytes <= 0 {
			t.Fatalf("empty logs: %+v", r)
		}
		// DoublePlay's log never exceeds CREW's (which needs order + input).
		if r.DPBytes > r.CrewBytes {
			t.Fatalf("dp log larger than crew: %+v", r)
		}
		// Per-section compression never grows the file (sections keep the
		// smaller encoding), and seeking one epoch must touch no more of
		// the file than decoding every epoch does.
		if r.CompBytes <= 0 || r.CompBytes > r.SectBytes {
			t.Fatalf("compressed file larger than raw: %+v", r)
		}
		if r.SeekBytes <= 0 || r.SeekBytes > r.ScanBytes {
			t.Fatalf("seek touched more bytes than a full scan: %+v", r)
		}
	}
}

func TestReplaySpeedShape(t *testing.T) {
	rows := replaySpeed(quickCfg(), 4)
	for _, r := range rows {
		if r.SeqRatio < 1.5 {
			t.Fatalf("sequential replay implausibly fast for a compute workload: %+v", r)
		}
		if r.ParRatio > r.SeqRatio {
			t.Fatalf("parallel replay slower than sequential: %+v", r)
		}
		if r.ParRatio > 1.6 {
			t.Fatalf("epoch-parallel replay should be near-native: %+v", r)
		}
	}
}

func TestDivergenceExperimentRecovers(t *testing.T) {
	rows := divergence(Config{Seed: 13, Seeds: 3})
	if len(rows) != len(racySet) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ReplaysOK != r.Seeds {
			t.Fatalf("not every recording replayed: %+v", r)
		}
		if r.RacyAddrs == 0 {
			t.Fatalf("race detector found nothing on %s", r.Workload)
		}
	}
}

func TestSpareSweepMonotoneAboveW(t *testing.T) {
	cfg := Config{Seed: 13}
	rows := spareSweep(cfg)
	byWl := map[string]map[int]float64{}
	for _, r := range rows {
		if byWl[r.Workload] == nil {
			byWl[r.Workload] = map[int]float64{}
		}
		byWl[r.Workload][r.Spares] = r.Overhead
	}
	for wl, pts := range byWl {
		// With spares >= workers (4), adding more spares must not help.
		if pts[8] > pts[4]+0.02 {
			t.Fatalf("%s: overhead grew past saturation: %v", wl, pts)
		}
		// Fewer spares than workers must hurt.
		if pts[2] <= pts[4] {
			t.Fatalf("%s: starved pipeline not slower: %v", wl, pts)
		}
	}
}

func TestAblationShowsGateValue(t *testing.T) {
	cfg := Config{Seed: 13, Workloads: []string{"kvdb", "fft"}}
	rows := ablation(cfg)
	var kvdb, fft ablationRow
	for _, r := range rows {
		switch r.Workload {
		case "kvdb":
			kvdb = r
		case "fft":
			fft = r
		}
	}
	if kvdb.DivWithGate != 0 {
		t.Fatalf("kvdb diverged with the gate: %+v", kvdb)
	}
	if kvdb.DivNoGate == 0 {
		t.Fatalf("kvdb (lock-striped) should diverge without the gate: %+v", kvdb)
	}
	if fft.DivNoGate != 0 {
		t.Fatalf("fft (barrier-only) should not need the gate: %+v", fft)
	}
}

// TestRenderersProduceTables runs every registry entry on a small
// configuration: each must pass its own sanity checks and produce titled,
// rectangular tables and named metrics, and its name, id and benchmark
// must be unique.
func TestRenderersProduceTables(t *testing.T) {
	// sigping is the one workload the certifier proves race-free, so the
	// verify-skip entry has something to skip.
	cfg := Config{Seed: 13, Seeds: 2, Workloads: []string{"kvdb", "sigping"}}
	seen := map[string]bool{}
	for _, e := range Experiments {
		for _, key := range []string{e.ID, e.Name, e.Bench} {
			if key == "" || seen[key] {
				t.Fatalf("%+v: empty or duplicate key %q", e, key)
			}
			seen[key] = true
		}
		rep, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(rep.Tables) == 0 || len(rep.Metrics) == 0 {
			t.Fatalf("%s: %d tables, %d metrics", e.Name, len(rep.Tables), len(rep.Metrics))
		}
		for _, m := range rep.Metrics {
			if m.Unit == "" || strings.ContainsAny(m.Unit, " \t") || m.Value != m.Value {
				t.Fatalf("%s: bad metric %+v", e.Name, m)
			}
		}
		var buf bytes.Buffer
		for _, tb := range rep.Tables {
			if tb.Title == "" || len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table %q", e.Name, tb.Title)
			}
			for _, r := range tb.Rows {
				if len(r) != len(tb.Headers) {
					t.Fatalf("%s: %q: row %v does not fit headers %v", e.Name, tb.Title, r, tb.Headers)
				}
			}
			tb.Write(&buf)
		}
		if out := buf.String(); !strings.Contains(out, rep.Tables[0].Title) || !strings.Contains(out, rep.Tables[0].Rows[0][0]) {
			t.Fatalf("%s: rendered output missing its title or first cell:\n%s", e.Name, out)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	Table{"Title", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}}}.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "333") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestVerifySkipStudy(t *testing.T) {
	cfg := Config{Seed: 13, Workloads: []string{"sigping", "racey", "kvdb"}}
	rows := verifySkip(cfg, 2, 2)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]verifySkipRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		// verifySkip itself panics on the soundness cross-checks; here we
		// check the reported numbers are coherent.
		if r.Skipped != 0 && r.Skipped != r.Epochs {
			t.Fatalf("partial skip is impossible by construction: %+v", r)
		}
		if r.Skipped == 0 && r.CertCyc != r.AlwaysCyc {
			t.Fatalf("fallback changed the recording cost: %+v", r)
		}
	}
	sp := byName["sigping"]
	if sp.CertStatus != "race-free" || sp.Skipped != sp.Epochs || sp.Epochs == 0 {
		t.Fatalf("sigping not certified: %+v", sp)
	}
	if sp.CertCyc >= sp.AlwaysCyc {
		t.Fatalf("certified sigping shows no overhead win: %+v", sp)
	}
	if r := byName["racey"]; r.CertStatus != "possibly-racy" || r.Skipped != 0 {
		t.Fatalf("racey mis-certified: %+v", r)
	}
	if r := byName["kvdb"]; r.CertStatus != "incomplete" || r.Skipped != 0 {
		t.Fatalf("kvdb mis-certified: %+v", r)
	}
}
