package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// Tiny sizes: every workload and probe runs its real code path on the
// smallest inputs that still reach every check.
var (
	tinyRecord = recordSize{programs: []string{"lu", "racey"}, seeds: 1, scale: 1, workers: 4, spares: 4}
	tinyReplay = replaySize{programs: []string{"kvdb"}, seeds: 1, scale: 1, workers: 2, stride: 4, seeks: 2, passes: 1}
	tinyStore  = storeSize{programs: []string{"kvdb", "aget"}, seeds: 2, scale: 1, workers: 2, keep: 1}
	tinyServe  = serveSize{programs: []string{"kvdb"}, clients: 2, sessions: 1, workers: 2, scale: 1, daemonWorkers: 2, queueDepth: 16, stride: 4, downloadEvery: 1}
	tinyProbes = probeSizes{
		record: recordSize{programs: []string{"lu"}, seeds: 1, scale: 1, workers: 2, spares: 2},
		replay: tinyReplay, store: tinyStore, serve: tinyServe,
	}
)

func tinyWorkloads(seed int64) []workload {
	return []workload{
		newRecordCompute(seed, tinyRecord),
		newReplayIO(seed, tinyReplay),
		newServeSession(seed, tinyServe),
		newStoreChurn(seed, tinyStore),
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func namesOf(ds []metricDecl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestDeclarationsMatchBenchmarkJSON keeps the program's vocabulary and
// BENCHMARK.json in step: same workloads, same metrics, same units,
// directions and bounds.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
		if newWorkload(w.Name, 1) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", wl, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range append(append(wl, namesOf(endToEnd)...), namesOf(perLayer)...) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, '_', '.' and '-'", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

// TestWorkloadsEmitDeclaredMetrics runs all four workloads at one tiny
// round, untraced and traced, plus the tiny probes, and checks that exactly
// the declared metrics come out, as finite numbers, with every check green.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	traced := map[string]float64{}
	for i, w := range tinyWorkloads(7) {
		res, err := measure(w, runConfig{setups: 1, rounds: 1, refInstrs: 200_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name(), res.Attempted, res.Failed, res.Failures)
		}
		if got, want := keysOf(res.Metrics), namesOf(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: untraced metrics %v, declared %v", w.name(), got, want)
		}
		for k, v := range res.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive finite number", w.name(), k, v)
			}
		}
		line := toLine(res.Attempted, res.Failed, res.Metrics, endToEnd)
		if !line.Correct || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %+v", w.name(), line)
		}

		// The probes below run traced rounds of the store and daemon
		// workloads themselves; tracing the first two here covers the rest.
		if i >= 2 {
			continue
		}
		tr, err := measureTraced(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Failed != 0 {
			t.Errorf("%s traced: failed %d: %v", w.name(), tr.Failed, tr.Failures)
		}
		var shares float64
		for _, l := range layers {
			shares += tr.Metrics[l+".self_pct"]
		}
		if math.Abs(shares-100) > 0.01 {
			t.Errorf("%s: layer self shares sum to %.4f%%, want 100%%", w.name(), shares)
		}
		for k, v := range tr.Metrics {
			traced[k] = v
		}
	}
	pr, err := runProbes(7, tinyProbes)
	if err != nil {
		t.Fatal(err)
	}
	if pr.failed != 0 {
		t.Errorf("probes: failed %d: %v", pr.failed, pr.failures)
	}
	for k, v := range pr.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("probe metric %s = %v", k, v)
		}
		traced[k] = v
	}
	if got, want := keysOf(traced), namesOf(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced metrics %v\ndeclared %v", got, want)
	}
}

// TestFlippedByteFailsReplay proves replay-io's checks bite: one flipped
// byte in a stored log must turn ops into failures.
func TestFlippedByteFailsReplay(t *testing.T) {
	w := newReplayIO(7, tinyReplay)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	if rr := w.round(nil, 0); rr.failed != 0 {
		t.Fatalf("intact corpus: %d failed ops: %v", rr.failed, rr.failures)
	}
	data := w.corpus[0][0].data
	data[len(data)/2] ^= 0x40
	rr := w.round(nil, 1)
	if rr.failed == 0 {
		t.Fatal("a recording with a flipped byte replayed without a failed op")
	}
	if share := float64(rr.failed) / float64(len(rr.opMs)); share <= 0 {
		t.Fatalf("failed share %v, want > 0", share)
	}
}

// TestDeletedChunkFailsFsck proves store-churn's end-of-window check bites:
// with one chunk file gone, Fsck must report damage.
func TestDeletedChunkFailsFsck(t *testing.T) {
	w := newStoreChurn(7, tinyStore)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	if rr := w.round(nil, 0); rr.failed != 0 {
		t.Fatalf("round: %d failed ops: %v", rr.failed, rr.failures)
	}
	if fin := w.finish(); len(fin.failures) != 0 {
		t.Fatalf("intact store: %v", fin.failures)
	}
	chunks, err := filepath.Glob(filepath.Join(w.dir, "chunks", "*", "*"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunk files under %s: %v", w.dir, err)
	}
	if err := os.Remove(chunks[0]); err != nil {
		t.Fatal(err)
	}
	if fin := w.finish(); len(fin.failures) == 0 {
		t.Fatal("fsck passed on a store with a deleted chunk")
	}
}

// TestReferenceKernel pins what the harness relies on: the kernel's work is
// a pure function of the number of slices, it allocates nothing once its
// first slices have run, and the speed factor for a round is the median of
// the slices nearest it.
func TestReferenceKernel(t *testing.T) {
	a, b := newRefMachine(100_000), newRefMachine(100_000)
	for i := 0; i < 3; i++ {
		a.slice()
		b.slice()
	}
	if a.hash != b.hash || a.regs != b.regs {
		t.Error("two kernels that ran the same slices differ")
	}
	if n := testing.AllocsPerRun(3, func() { a.slice() }); n != 0 {
		t.Errorf("a warm slice allocates %v times, want 0", n)
	}

	m := newRefMachine(refSliceInstrs)
	// A burst on one slice is ignored; a phase that covers the round is not.
	slices := []time.Duration{80, 80, 160, 80, 80, 120, 120, 120, 120}
	for i := range slices {
		slices[i] *= time.Millisecond
	}
	for _, c := range []struct {
		round int
		want  float64
	}{{0, 1}, {2, 1}, {6, 1.5}, {7, 1.5}} {
		if got := m.speedAround(slices, c.round); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("speedAround(round %d) = %v, want %v", c.round, got, c.want)
		}
	}
}
