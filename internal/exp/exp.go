// Package exp implements the evaluation harness. Experiments lists the
// paper's tables and figures once, in the order they are printed; each
// entry runs its experiment and returns the tables cmd/dpbench prints and
// the headline metrics the repository benchmarks gate (BENCH_*.json).
// Experiments whose shape a test asserts (overhead, logSize, replaySpeed,
// divergence, spareSweep, ablation, verifySkip) also return their rows.
// EXPERIMENTS.md records a reference run.
package exp

import (
	"fmt"
	"io"
	"strings"

	"doubleplay/internal/core"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// Config holds the knobs shared by every experiment.
type Config struct {
	Seed        int64
	Scale       int
	EpochCycles int64
	Costs       *vm.CostModel

	// Workloads, when non-empty, overrides the default benchmark list
	// (evalSet) for every experiment — used by quick runs and tests.
	Workloads []string

	// Seeds is how many seeds the divergence experiment records each racy
	// workload under (default 12).
	Seeds int
}

// Experiment is one table or figure of the evaluation.
type Experiment struct {
	ID    string // index key in DESIGN.md ("F1")
	Name  string // dpbench -exp <Name>
	Bench string // Benchmark<Bench> in the root package, BENCH_<bench>.json
	Desc  string
	// Run performs the experiment. A non-nil error means a sanity check on
	// the result failed; the report is still returned for inspection.
	Run func(Config) (Report, error)
}

// Report is what an experiment produces: the tables it prints and the
// headline metrics it is gated on.
type Report struct {
	Tables  []Table
	Metrics []Metric
}

// Metric is one headline number, named by its unit as `go test -bench`
// reports it.
type Metric struct {
	Unit  string
	Value float64
}

// Table is one printed table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// subset is the experiment's own workload list unless the configuration
// overrides it.
func (c Config) subset(own []string) []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return own
}

func (c Config) norm() Config {
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.EpochCycles <= 0 {
		c.EpochCycles = core.DefaultEpochCycles
	}
	if c.Seeds <= 0 {
		c.Seeds = 12
	}
	return c
}

// evalSet is the benchmark list used by the overhead/log/replay
// experiments: the paper's client, server, and scientific programs.
var evalSet = suiteWhere(func(w *workloads.Workload) bool { return w.Kind != "micro" })

// racySet is the list used by the divergence experiments.
var racySet = suiteWhere(func(w *workloads.Workload) bool { return w.Racy })

// suiteWhere names the suite's workloads that keep accepts, in
// presentation order.
func suiteWhere(keep func(*workloads.Workload) bool) []string {
	var out []string
	for _, w := range workloads.All() {
		if keep(w) {
			out = append(out, w.Name)
		}
	}
	return out
}

// build constructs a fresh instance of a named workload.
func build(name string, workers int, cfg Config) (*workloads.Workload, *workloads.Built) {
	wl := workloads.Get(name)
	if wl == nil {
		panic("exp: unknown workload " + name)
	}
	return wl, wl.Build(workloads.Params{Workers: workers, Scale: cfg.Scale, Seed: cfg.Seed})
}

// native measures the plain parallel execution of a fresh instance.
func native(name string, workers int, cfg Config) *core.NativeResult {
	_, bt := build(name, workers, cfg)
	res, err := core.RunNative(bt.Prog, bt.World, workers, cfg.Seed, cfg.Costs)
	if err != nil {
		panic(fmt.Sprintf("exp: native %s: %v", name, err))
	}
	return res
}

// record runs DoublePlay recording on a fresh instance. tweak, when
// non-nil, adjusts the options an experiment studies itself.
func record(name string, workers, spares int, cfg Config, tweak func(*core.Options)) (*core.Result, *workloads.Built) {
	_, bt := build(name, workers, cfg)
	opt := core.Options{
		Workers:     workers,
		RecordCPUs:  workers,
		SpareCPUs:   spares,
		EpochCycles: cfg.EpochCycles,
		Seed:        cfg.Seed,
		Costs:       cfg.Costs,
	}
	if tweak != nil {
		tweak(&opt)
	}
	res, err := core.Record(bt.Prog, bt.World, opt)
	if err != nil {
		panic(fmt.Sprintf("exp: record %s: %v", name, err))
	}
	return res, bt
}

// osFor wraps a built workload's world in the syscall handler.
func osFor(bt *workloads.Built) vm.SyscallHandler { return simos.NewOS(bt.World) }

// over is the overhead of a recording against the native run.
func over(res *core.Result, nat *core.NativeResult) float64 {
	return float64(res.Stats.CompletionCycles)/float64(nat.Cycles) - 1
}

// pct formats a ratio-1 as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

// ratio formats a ratio with two decimals and an x suffix.
func ratio(r float64) string { return fmt.Sprintf("%.2fx", r) }

// Write renders the table as aligned text.
func (t Table) Write(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// table renders rows through cells, one line each.
func table[R any](title string, headers []string, rows []R, cells func(R) []string) Table {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = cells(r)
	}
	return Table{Title: title, Headers: headers, Rows: out}
}

// avg is the arithmetic mean of f over rows.
func avg[R any](rows []R, f func(R) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	var s float64
	for _, r := range rows {
		s += f(r)
	}
	return s / float64(len(rows))
}
