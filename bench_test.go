// Benchmarks that regenerate the paper's tables and figures, one per entry
// of exp.Experiments (see DESIGN.md's per-experiment index). Each runs its
// experiment over the full evaluation suite and reports the entry's
// headline metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation; scripts/bench.sh folds the metrics into
// BENCH_<name>.json. cmd/dpbench prints the same runs as tables. What each
// experiment measures and which numbers it is gated on is declared in
// internal/exp; TestEvaluationListedOnce keeps this file in step with it.
package doubleplay_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"doubleplay/internal/exp"
)

// benchExperiment runs the registry entry the calling benchmark is named
// after (Benchmark<Bench>) and reports its headline metrics. The entry's
// own sanity checks (replay fidelity, no divergence under the gate,
// something certified) fail the benchmark.
func benchExperiment(b *testing.B) {
	bench := strings.TrimPrefix(b.Name(), "Benchmark")
	for _, e := range exp.Experiments {
		if e.Bench != bench {
			continue
		}
		for i := 0; i < b.N; i++ {
			rep, err := e.Run(exp.Config{Seed: 11, Seeds: 6})
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range rep.Metrics {
				b.ReportMetric(m.Value, m.Unit)
			}
		}
		return
	}
	b.Fatalf("no experiment with Bench %q in exp.Experiments", bench)
}

func BenchmarkTable1Characteristics(b *testing.B)     { benchExperiment(b) }
func BenchmarkFigOverheadSpare2(b *testing.B)         { benchExperiment(b) }
func BenchmarkFigOverheadSpare4(b *testing.B)         { benchExperiment(b) }
func BenchmarkFigOverheadUtilized(b *testing.B)       { benchExperiment(b) }
func BenchmarkTableLogSize(b *testing.B)              { benchExperiment(b) }
func BenchmarkFigReplaySpeed(b *testing.B)            { benchExperiment(b) }
func BenchmarkFigEpochSweep(b *testing.B)             { benchExperiment(b) }
func BenchmarkTableDivergence(b *testing.B)           { benchExperiment(b) }
func BenchmarkFigSpareCores(b *testing.B)             { benchExperiment(b) }
func BenchmarkTableUniprocessorBaseline(b *testing.B) { benchExperiment(b) }
func BenchmarkAblationSyncEnforcement(b *testing.B)   { benchExperiment(b) }
func BenchmarkAblationAdaptiveEpochs(b *testing.B)    { benchExperiment(b) }
func BenchmarkExtensionAdaptiveSpares(b *testing.B)   { benchExperiment(b) }
func BenchmarkExtensionSparseReplay(b *testing.B)     { benchExperiment(b) }
func BenchmarkExtensionVerifySkip(b *testing.B)       { benchExperiment(b) }

// TestEvaluationListedOnce holds the three hand-kept lists to the registry:
// every exp.Experiments entry has its Benchmark<Bench> one-liner in this
// file, a committed BENCH_<bench>.json and a DESIGN.md index row naming
// `dpbench -exp <Name>` and the benchmark — and none of the three lists has
// an item the registry lacks.
func TestEvaluationListedOnce(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	benches := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^func Benchmark(\w+)\(b \*testing\.B\)`).FindAllStringSubmatch(read("bench_test.go"), -1) {
		benches[m[1]] = true
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	jsons := map[string]bool{}
	for _, f := range files {
		jsons[f] = true
	}
	rows := map[string]string{} // index row by ID
	for _, m := range regexp.MustCompile("(?m)^\\| (\\w+) \\|.*`dpbench -exp \\w+`.*$").FindAllStringSubmatch(read("DESIGN.md"), -1) {
		rows[m[1]] = m[0]
	}

	for _, e := range exp.Experiments {
		if !benches[e.Bench] {
			t.Errorf("%s: no func Benchmark%s in bench_test.go", e.Name, e.Bench)
		}
		delete(benches, e.Bench)

		file := "BENCH_" + strings.ToLower(e.Bench) + ".json"
		if !jsons[file] {
			t.Errorf("%s: no committed %s (run scripts/bench.sh)", e.Name, file)
		} else {
			var got struct{ Benchmark string }
			if err := json.Unmarshal([]byte(read(file)), &got); err != nil || got.Benchmark != e.Bench {
				t.Errorf("%s: %s names benchmark %q (%v), want %q", e.Name, file, got.Benchmark, err, e.Bench)
			}
		}
		delete(jsons, file)

		row := rows[e.ID]
		for _, want := range []string{"`dpbench -exp " + e.Name + "`", "`Benchmark" + e.Bench + "`"} {
			if !strings.Contains(row, want) {
				t.Errorf("%s: DESIGN.md index row %s does not name %s: %q", e.Name, e.ID, want, row)
			}
		}
		delete(rows, e.ID)
	}
	for b := range benches {
		t.Errorf("Benchmark%s has no exp.Experiments entry", b)
	}
	for f := range jsons {
		t.Errorf("%s has no exp.Experiments entry", f)
	}
	for id, row := range rows {
		t.Errorf("DESIGN.md index row %s has no exp.Experiments entry: %q", id, row)
	}
}
