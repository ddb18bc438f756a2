// Command benchmark is the repository's host-time ruler: four closed-loop
// workloads over the record/replay pipeline, the log codec, the store and
// the daemon; end-to-end metrics from an untraced run; per-layer metrics from
// a separate traced run whose spans are recorded here, around the calls into
// each layer, never inside the system under test. See README.md.
//
//	go run ./benchmark --workload replay-io --seed 11 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 450, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// tracedPairs is how many (untraced, traced) round pairs a traced run makes.
const tracedPairs = 2

func newWorkload(name string, seed int64) workload {
	switch name {
	case "record-compute":
		return newRecordCompute(seed, recordFull)
	case "replay-io":
		return newReplayIO(seed, replayFull)
	case "serve-session":
		return newServeSession(seed, serveFull)
	case "store-churn":
		return newStoreChurn(seed, storeFull)
	}
	return nil
}

var workloadNames = []string{"record-compute", "replay-io", "serve-session", "store-churn"}

// outMetric is one value on the result line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract with whoever runs the benchmark: the last line
// of standard output, exactly these keys.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func toLine(attempted, failed int, values map[string]float64, decls []metricDecl) resultLine {
	l := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]outMetric{}}
	for _, d := range decls {
		l.Metrics[d.Name] = outMetric{Value: values[d.Name], Unit: d.Unit}
	}
	return l
}

// environment is recorded with every stored result.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit,omitempty"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func environmentOf(seed int64, seconds int, commit string) environment {
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit, Seed: seed, Seconds: seconds,
	}
}

func main() {
	var (
		wlName    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+"; empty runs all four")
		seed      = flag.Int64("seed", 11, "benchmark seed; every guest input seed is derived from it")
		seconds   = flag.Int("seconds", 15, "length of the measured window; sizes the number of fixed-work rounds")
		traceMode = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		outDir    = flag.String("out", "", "directory to store result JSON and raw spans in (default: none)")
		commit    = flag.String("commit", "", "commit id to record in stored results")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice untraced and compare the two sets against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}
	names := workloadNames
	if *wlName != "" {
		if newWorkload(*wlName, *seed) == nil {
			fatalf("unknown workload %q (want one of %s)", *wlName, strings.Join(workloadNames, ", "))
		}
		names = []string{*wlName}
	}
	// One processor: on the shared reference box a second busy virtual CPU
	// slows the first by up to a half in phases that last minutes, so work
	// spread over two measures the host's placement, not the program.
	runtime.GOMAXPROCS(1)
	env := environmentOf(*seed, *seconds, *commit)
	fmt.Printf("# benchmark: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%d trace=%d\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, *seed, *seconds, *traceMode)

	var code int
	switch {
	case *selfcheck:
		code = runSelfcheck(os.Stdout, names, env)
	case *traceMode != 0:
		code = runTraced(names, env, *outDir)
	default:
		code = runUntraced(names, env, *outDir)
	}
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// measureNamed runs the untraced protocol on one workload as env sizes it.
func measureNamed(name string, env environment) (*runResult, error) {
	w := newWorkload(name, env.Seed)
	window := time.Duration(env.Seconds) * time.Second
	return measure(w, runConfig{setups: setupRepeats, rounds: roundsFor(w, env.Seconds), window: window})
}

// runUntraced measures the end-to-end metrics of each named workload and
// prints the result line (of the last workload when several run; the stored
// JSON holds them all).
func runUntraced(names []string, env environment, outDir string) int {
	var all []*runResult
	var line resultLine
	failed := false
	for _, n := range names {
		res, err := measureNamed(n, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printRun(os.Stdout, res)
		all = append(all, res)
		line = toLine(res.Attempted, res.Failed, res.Metrics, endToEnd)
		failed = failed || res.Failed > 0
	}
	if outDir != "" {
		if err := writeJSON(filepath.Join(outDir, "untraced.json"), map[string]any{"environment": env, "end_to_end": endToEnd, "workloads": all}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return emit(line, failed)
}

// runTraced measures the per-layer metrics: the workload-independent layer
// probes once, then each named workload's own span-derived layer shares.
func runTraced(names []string, env environment, outDir string) int {
	pr, err := runProbes(env.Seed, fullProbes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: probes: %v\n", err)
		return 1
	}
	var all []*tracedResult
	var line resultLine
	failed := false
	for _, n := range names {
		res, err := measureTraced(newWorkload(n, env.Seed), tracedPairs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		for k, v := range pr.metrics {
			res.Metrics[k] = v
		}
		res.Failed += pr.failed
		res.Attempted += pr.attempted
		res.Failures = append(res.Failures, pr.failures...)
		printTraced(os.Stdout, res)
		all = append(all, res)
		line = toLine(res.Attempted, res.Failed, res.Metrics, perLayer)
		failed = failed || res.Failed > 0
		if outDir != "" {
			if err := writeSpanFile(filepath.Join(outDir, "spans-"+n+".jsonl"), env, res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	}
	if outDir != "" {
		if err := writeJSON(filepath.Join(outDir, "traced.json"), map[string]any{"environment": env, "per_layer": perLayer, "workloads": all}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return emit(line, failed)
}

// emit prints the result line last and turns failed checks into the exit
// code.
func emit(line resultLine, failed bool) int {
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	if failed {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpanFile(path string, env environment, res *tracedResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := writeSpans(f, map[string]any{"workload": res.Workload, "environment": env, "spans": len(res.spans)}, res.spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// printRun writes the human-readable report of an untraced run.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n== %s (untraced): %d rounds x %d ops, window %.1fs, %d latency samples\n",
		r.Workload, r.Rounds, r.OpsPerRnd, r.WindowS, r.Samples)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-30s %18.6f %-8s %s, bound %.0f%%", d.Name, r.Metrics[d.Name], d.Unit, d.Better, 100*d.Bound)
		if v, ok := r.Wall[d.Name]; ok {
			fmt.Fprintf(w, "  (wall clock %.6f)", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-30s %18.6f %-8s (beside the metrics: %d samples)\n", "op_p95_ms", r.OpP95Ms, "ms", r.Samples)
	fmt.Fprintf(w, "  %-30s %18.6f %-8s (round times at reference speed, interquartile / median)\n", "round_iqr_pct", r.RoundIQR, "%")
	fmt.Fprintf(w, "  round_ms %.1f wall clock\n  ref_ms   %.1f\n  speed_x  %.3f\n  setup_s  %.3f wall clock\n", r.RoundMs, r.RefMs, r.Speed, r.SetupS)
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printTraced writes the human-readable report of a traced run.
func printTraced(w io.Writer, r *tracedResult) {
	fmt.Fprintf(w, "\n== %s (traced): %d spans, lanes %.1f ms\n", r.Workload, r.Spans, r.LaneMs)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %18.6f %s\n", k, r.Metrics[k], units[k])
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
