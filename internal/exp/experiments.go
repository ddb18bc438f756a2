package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"

	"doubleplay/internal/baseline"
	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/race"
	"doubleplay/internal/replay"
	"doubleplay/internal/sched"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// Experiments is the evaluation, in the order `dpbench -exp all` prints it.
// cmd/dpbench, the root package's Benchmark* functions, the committed
// BENCH_*.json and DESIGN.md's per-experiment index are all this list; a
// test in the root package fails when one of them disagrees with it.
var Experiments = []Experiment{
	{"T1", "table1", "Table1Characteristics", "benchmark characteristics", runTable1},
	{"F1", "overhead2", "FigOverheadSpare2", "logging overhead with spare cores, 2 worker threads",
		runOverhead("F1: logging overhead with spare cores (2 threads)", 2, 2)},
	{"F2", "overhead4", "FigOverheadSpare4", "logging overhead with spare cores, 4 worker threads",
		runOverhead("F2: logging overhead with spare cores (4 threads)", 4, 4)},
	{"F3", "utilized", "FigOverheadUtilized", "overhead with no spare cores (both runs share the cores)", runUtilized},
	{"T2", "logsize", "TableLogSize", "log sizes vs CREW order logging", runLogSize},
	{"F4", "replay", "FigReplaySpeed", "replay speed, sequential vs epoch-parallel", runReplaySpeed},
	{"F5", "epochsweep", "FigEpochSweep", "overhead vs epoch length", runEpochSweep},
	{"T3", "divergence", "TableDivergence", "divergences and forward recovery on racy programs", runDivergence},
	{"F6", "sparesweep", "FigSpareCores", "overhead vs spare cores", runSpareSweep},
	{"T4", "unibase", "TableUniprocessorBaseline", "uniprocessor record/replay baseline", runUniBaseline},
	{"A1", "ablation", "AblationSyncEnforcement", "ablation: sync-order enforcement on/off", runAblation},
	{"A2", "adaptive", "AblationAdaptiveEpochs", "ablation: fixed vs adaptive epoch length", runAdaptive},
	{"E3", "adaptivespares", "ExtensionAdaptiveSpares", "extension: adaptive spare-slot controller vs fixed pins", runAdaptiveSpares},
	{"E1", "sparse", "ExtensionSparseReplay", "extension: checkpoint retention vs segment-parallel replay speed", runSparseReplay},
	{"E2", "verifyskip", "ExtensionVerifySkip", "extension: certified verify-skip vs full verification", runVerifySkip},
}

// replaySeq replays a recording sequentially from program reset.
func replaySeq(prog *vm.Program, rec *dplog.Recording, costs *vm.CostModel) (*replay.Result, error) {
	return replay.Run(context.Background(), prog, replay.FromRecording(rec), replay.Options{Costs: costs})
}

// --- T1: benchmark characteristics -------------------------------------------

// runTable1 profiles every evaluation workload at 2 and 4 threads.
func runTable1(cfg Config) (Report, error) {
	cfg = cfg.norm()
	t := Table{Title: "T1: benchmark characteristics",
		Headers: []string{"workload", "kind", "threads", "instrs", "sync ops", "syscalls", "pages", "epochs", "native cyc"}}
	var instrs float64
	for _, name := range cfg.subset(evalSet) {
		wl := workloads.Get(name)
		for _, workers := range []int{2, 4} {
			nat := native(name, workers, cfg)
			res, _ := record(name, workers, workers, cfg, nil)
			st, last := res.Stats, res.Boundaries[len(res.Boundaries)-1]
			t.Rows = append(t.Rows, []string{name, wl.Kind, fmt.Sprint(workers), fmt.Sprint(st.Retired),
				fmt.Sprint(st.SyncEvents), fmt.Sprint(st.Syscalls), fmt.Sprint(last.MappedPages),
				fmt.Sprint(st.Epochs), fmt.Sprint(nat.Cycles)})
			instrs += float64(st.Retired)
		}
	}
	return Report{Tables: []Table{t}, Metrics: []Metric{{"instrs/workload", instrs / float64(len(t.Rows))}}}, nil
}

// --- F1/F2/F3: logging overhead ----------------------------------------------

// overheadRow is one bar of the logging-overhead figures.
type overheadRow struct {
	Workload    string
	Workers     int
	Spares      int
	NativeCyc   int64
	RecordCyc   int64 // uniparallel completion time
	Overhead    float64
	Divergences int
}

// overhead measures recording overhead for every evaluation workload at the
// given worker count with the given spare cores (F1: workers=2, F2:
// workers=4; F3 uses spares=0).
func overhead(cfg Config, workers, spares int) []overheadRow {
	cfg = cfg.norm()
	var rows []overheadRow
	for _, name := range cfg.subset(evalSet) {
		nat := native(name, workers, cfg)
		res, _ := record(name, workers, spares, cfg, nil)
		rows = append(rows, overheadRow{
			Workload:    name,
			Workers:     workers,
			Spares:      spares,
			NativeCyc:   nat.Cycles,
			RecordCyc:   res.Stats.CompletionCycles,
			Overhead:    over(res, nat),
			Divergences: res.Stats.Divergences,
		})
	}
	return rows
}

// meanOverhead averages the overhead column.
func meanOverhead(rows []overheadRow) float64 {
	return avg(rows, func(r overheadRow) float64 { return r.Overhead })
}

// overheadTable runs one overhead figure and returns it with its mean, in
// percent.
func overheadTable(cfg Config, title string, workers, spares int) (Table, float64) {
	rows := overhead(cfg, workers, spares)
	t := table(title, []string{"workload", "threads", "spares", "native cyc", "record cyc", "overhead", "divergences"},
		rows, func(r overheadRow) []string {
			return []string{r.Workload, fmt.Sprint(r.Workers), fmt.Sprint(r.Spares),
				fmt.Sprint(r.NativeCyc), fmt.Sprint(r.RecordCyc), pct(r.Overhead), fmt.Sprint(r.Divergences)}
		})
	mean := meanOverhead(rows)
	t.Rows = append(t.Rows, []string{"AVERAGE", "", "", "", "", pct(mean), ""})
	return t, mean * 100
}

func runOverhead(title string, workers, spares int) func(Config) (Report, error) {
	return func(cfg Config) (Report, error) {
		t, mean := overheadTable(cfg, title, workers, spares)
		return Report{Tables: []Table{t}, Metrics: []Metric{{"overhead_%", mean}}}, nil
	}
}

func runUtilized(cfg Config) (Report, error) {
	t2, m2 := overheadTable(cfg, "F3a: overhead, utilized machine (2 threads)", 2, 0)
	t4, m4 := overheadTable(cfg, "F3b: overhead, utilized machine (4 threads)", 4, 0)
	return Report{Tables: []Table{t2, t4}, Metrics: []Metric{{"overhead2_%", m2}, {"overhead4_%", m4}}}, nil
}

// --- T2: log sizes -------------------------------------------------------------

// logSizeRow compares DoublePlay's replay log with the CREW ownership log,
// and measures the v6 on-disk container: sectioned size with and without
// per-section compression, plus the read locality the section index buys
// (bytes touched seeking one epoch vs scanning all of them).
type logSizeRow struct {
	Workload  string
	Retired   int64
	DPBytes   int
	DPPerM    float64 // bytes per million instructions
	CrewBytes int
	CrewPerM  float64
	CrewTrans int64
	UniBytes  int

	SectBytes int   // v6 sectioned file, raw sections
	CompBytes int   // v6 sectioned file, per-section flate (the on-disk default)
	SeekBytes int64 // bytes touched: open + seek the last epoch
	ScanBytes int64 // bytes touched: open + decode every epoch in order
}

// countingAt counts the bytes fetched through an io.ReaderAt.
type countingAt struct {
	r io.ReaderAt
	n int64
}

func (c *countingAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n += int64(n)
	return n, err
}

// seekCost opens an encoded log over byte-counting readers and reports
// the bytes touched by (a) seeking straight to the last epoch and (b)
// decoding every epoch in order through the same reader API.
func seekCost(name string, data []byte) (seek, scan int64) {
	open := func() (*countingAt, *dplog.Reader) {
		cr := &countingAt{r: bytes.NewReader(data)}
		rd, err := dplog.OpenReader(cr, int64(len(data)))
		if err != nil {
			panic(fmt.Sprintf("exp: open log %s: %v", name, err))
		}
		return cr, rd
	}
	cr, rd := open()
	if _, err := rd.Seek(rd.NumSections() - 1); err != nil {
		panic(fmt.Sprintf("exp: seek %s: %v", name, err))
	}
	seek = cr.n
	cr, rd = open()
	for i := 0; i < rd.NumSections(); i++ {
		if _, err := rd.EpochAt(i); err != nil {
			panic(fmt.Sprintf("exp: scan %s: %v", name, err))
		}
	}
	return seek, cr.n
}

// logSize measures log sizes at 4 worker threads.
func logSize(cfg Config) []logSizeRow {
	cfg = cfg.norm()
	const workers = 4
	var rows []logSizeRow
	for _, name := range cfg.subset(evalSet) {
		res, _ := record(name, workers, workers, cfg, nil)
		_, bt := build(name, workers, cfg)
		crew, err := baseline.RunCREW(bt.Prog, bt.World, workers, cfg.Seed, cfg.Costs, nil)
		if err != nil {
			panic(fmt.Sprintf("exp: crew %s: %v", name, err))
		}
		_, bt2 := build(name, workers, cfg)
		uni, err := baseline.RunUniprocessor(bt2.Prog, bt2.World, cfg.Costs, nil)
		if err != nil {
			panic(fmt.Sprintf("exp: uni %s: %v", name, err))
		}
		raw := dplog.MarshalBytesWith(res.Recording, dplog.EncodeOptions{})
		comp := dplog.MarshalBytes(res.Recording)
		seekB, scanB := seekCost(name, comp)
		m := float64(res.Stats.Retired) / 1e6
		rows = append(rows, logSizeRow{
			Workload:  name,
			Retired:   res.Stats.Retired,
			DPBytes:   res.Stats.ReplayBytes,
			DPPerM:    float64(res.Stats.ReplayBytes) / m,
			CrewBytes: crew.LogBytes,
			CrewPerM:  float64(crew.LogBytes) / m,
			CrewTrans: crew.Transitions,
			UniBytes:  uni.LogBytes,
			SectBytes: len(raw),
			CompBytes: len(comp),
			SeekBytes: seekB,
			ScanBytes: scanB,
		})
	}
	return rows
}

func runLogSize(cfg Config) (Report, error) {
	rows := logSize(cfg)
	return Report{
		Tables: []Table{table("T2: log size, DoublePlay vs CREW order logging (4 threads)",
			[]string{"workload", "instrs", "dp bytes", "dp B/Minstr", "crew bytes", "crew B/Minstr",
				"crew faults", "uni bytes", "v6 raw", "v6 file", "seek B", "scan B"},
			rows, func(r logSizeRow) []string {
				return []string{r.Workload, fmt.Sprint(r.Retired), fmt.Sprint(r.DPBytes),
					fmt.Sprintf("%.0f", r.DPPerM), fmt.Sprint(r.CrewBytes), fmt.Sprintf("%.0f", r.CrewPerM),
					fmt.Sprint(r.CrewTrans), fmt.Sprint(r.UniBytes),
					fmt.Sprint(r.SectBytes), fmt.Sprint(r.CompBytes),
					fmt.Sprint(r.SeekBytes), fmt.Sprint(r.ScanBytes)}
			})},
		Metrics: []Metric{
			{"dp_B/Minstr", avg(rows, func(r logSizeRow) float64 { return r.DPPerM })},
			{"crew_B/Minstr", avg(rows, func(r logSizeRow) float64 { return r.CrewPerM })},
			{"file_B/Minstr", avg(rows, func(r logSizeRow) float64 { return float64(r.CompBytes) / (float64(r.Retired) / 1e6) })},
			{"seek_B", avg(rows, func(r logSizeRow) float64 { return float64(r.SeekBytes) })},
			{"scan_B", avg(rows, func(r logSizeRow) float64 { return float64(r.ScanBytes) })},
		},
	}, nil
}

// --- F4: replay speed -----------------------------------------------------------

// replayRow is one bar of the replay-speed figure.
type replayRow struct {
	Workload  string
	Workers   int
	NativeCyc int64
	SeqCyc    int64
	ParCyc    int64
	SeqRatio  float64
	ParRatio  float64
}

// replaySpeed measures sequential vs epoch-parallel replay time.
func replaySpeed(cfg Config, workers int) []replayRow {
	cfg = cfg.norm()
	var rows []replayRow
	for _, name := range cfg.subset(evalSet) {
		nat := native(name, workers, cfg)
		res, bt := record(name, workers, workers, cfg, nil)
		seq, err := replaySeq(bt.Prog, res.Recording, cfg.Costs)
		if err != nil {
			panic(fmt.Sprintf("exp: seq replay %s: %v", name, err))
		}
		par, err := replay.Run(context.Background(), bt.Prog, replay.FromRecording(res.Recording),
			replay.Options{Boundaries: res.Boundaries, CPUs: workers, Costs: cfg.Costs})
		if err != nil {
			panic(fmt.Sprintf("exp: par replay %s: %v", name, err))
		}
		rows = append(rows, replayRow{
			Workload:  name,
			Workers:   workers,
			NativeCyc: nat.Cycles,
			SeqCyc:    seq.Cycles,
			ParCyc:    par.Cycles,
			SeqRatio:  float64(seq.Cycles) / float64(nat.Cycles),
			ParRatio:  float64(par.Cycles) / float64(nat.Cycles),
		})
	}
	return rows
}

// runReplaySpeed prints F4 at 2 and 4 threads; the 4-thread means are the
// headline.
func runReplaySpeed(cfg Config) (rep Report, err error) {
	for _, workers := range []int{2, 4} {
		rows := replaySpeed(cfg, workers)
		rep.Tables = append(rep.Tables, table(fmt.Sprintf("F4: replay time normalized to native (%d threads)", workers),
			[]string{"workload", "threads", "native cyc", "seq cyc", "seq/native", "par cyc", "par/native"},
			rows, func(r replayRow) []string {
				return []string{r.Workload, fmt.Sprint(r.Workers), fmt.Sprint(r.NativeCyc),
					fmt.Sprint(r.SeqCyc), ratio(r.SeqRatio), fmt.Sprint(r.ParCyc), ratio(r.ParRatio)}
			}))
		rep.Metrics = []Metric{
			{"seq_x", avg(rows, func(r replayRow) float64 { return r.SeqRatio })},
			{"par_x", avg(rows, func(r replayRow) float64 { return r.ParRatio })},
		}
	}
	return rep, nil
}

// --- F5: epoch-length sensitivity -----------------------------------------------

// epochSweepLens are the swept epoch lengths.
var epochSweepLens = []int64{12_500, 25_000, 50_000, 100_000, 200_000, 400_000}

// epochSweepSet is the workload subset used for the sweep.
var epochSweepSet = []string{"pbzip", "ocean", "webserve"}

// runEpochSweep measures overhead as a function of epoch length (4
// threads); the headline is the best and the worst point of the U.
func runEpochSweep(cfg Config) (Report, error) {
	cfg = cfg.norm()
	const workers = 4
	t := Table{Title: "F5: overhead vs epoch length (4 threads)",
		Headers: []string{"workload", "epoch cycles", "epochs", "overhead", "divergences"}}
	best, worst := math.Inf(1), math.Inf(-1)
	for _, name := range epochSweepSet {
		nat := native(name, workers, cfg)
		for _, el := range epochSweepLens {
			c := cfg
			c.EpochCycles = el
			res, _ := record(name, workers, workers, c, nil)
			o := over(res, nat)
			t.Rows = append(t.Rows, []string{name, fmt.Sprint(el), fmt.Sprint(res.Stats.Epochs),
				pct(o), fmt.Sprint(res.Stats.Divergences)})
			best, worst = min(best, o), max(worst, o)
		}
	}
	return Report{Tables: []Table{t}, Metrics: []Metric{{"best_%", best * 100}, {"worst_%", worst * 100}}}, nil
}

// --- T3: divergence and forward recovery ----------------------------------------

// divergenceRow summarises racy-workload behaviour across seeds.
type divergenceRow struct {
	Workload        string
	Seeds           int
	Epochs          int
	Divergences     int
	HashRecoveries  int
	RerunRecoveries int
	ReplaysOK       int
	RacyAddrs       int // distinct racy addresses the HB detector reports
	SquashedCyc     int64
}

// divergence records each racy workload under cfg.Seeds seeds, verifying
// that every recovered log still replays, and runs the happens-before
// detector to attribute the divergences to data races.
func divergence(cfg Config) []divergenceRow {
	cfg = cfg.norm()
	const workers = 4
	var rows []divergenceRow
	for _, name := range racySet {
		row := divergenceRow{Workload: name, Seeds: cfg.Seeds}
		for s := 0; s < cfg.Seeds; s++ {
			c := cfg
			c.Seed = cfg.Seed + int64(s)*101
			res, bt := record(name, workers, workers, c, nil)
			row.Epochs += res.Stats.Epochs
			row.Divergences += res.Stats.Divergences
			row.HashRecoveries += res.Stats.HashRecoveries
			row.RerunRecoveries += res.Stats.RerunRecoveries
			row.SquashedCyc += res.Stats.SquashedCycles
			if _, err := replaySeq(bt.Prog, res.Recording, cfg.Costs); err == nil {
				row.ReplaysOK++
			}
		}
		// Race attribution: one uniprocessor run under the detector.
		_, bt := build(name, workers, cfg)
		det := race.NewDetector(0)
		m := vm.NewMachine(bt.Prog, osFor(bt), cfg.Costs)
		m.Hooks.OnSync = det.OnSync
		m.Hooks.OnMemAccess = det.OnMemAccess
		uni := sched.NewUni(m)
		if err := uni.Run(); err == nil {
			row.RacyAddrs = det.Count()
		}
		rows = append(rows, row)
	}
	return rows
}

func runDivergence(cfg Config) (Report, error) {
	rows := divergence(cfg)
	var div, epochs, replays, seeds int
	for _, r := range rows {
		div += r.Divergences
		epochs += r.Epochs
		replays += r.ReplaysOK
		seeds += r.Seeds
	}
	rep := Report{
		Tables: []Table{table("T3: divergence and forward recovery on racy programs (4 threads)",
			[]string{"workload", "seeds", "epochs", "divergences", "adopt-recov", "rerun-recov", "replays ok", "racy addrs", "squashed cyc"},
			rows, func(r divergenceRow) []string {
				return []string{r.Workload, fmt.Sprint(r.Seeds), fmt.Sprint(r.Epochs),
					fmt.Sprint(r.Divergences), fmt.Sprint(r.HashRecoveries), fmt.Sprint(r.RerunRecoveries),
					fmt.Sprintf("%d/%d", r.ReplaysOK, r.Seeds), fmt.Sprint(r.RacyAddrs), fmt.Sprint(r.SquashedCyc)}
			})},
		Metrics: []Metric{{"divergences", float64(div)}, {"diverged_epochs_%", float64(div) / float64(epochs) * 100}},
	}
	if replays != seeds {
		return rep, fmt.Errorf("replay fidelity broken: %d/%d recovered recordings replay", replays, seeds)
	}
	return rep, nil
}

// --- F6: spare-core sweep ---------------------------------------------------------

// spareRow is one point of the spare-core scalability figure.
type spareRow struct {
	Workload string
	Spares   int
	Overhead float64
}

// spareSweepSet is the workload subset for the spare-core sweep.
var spareSweepSet = []string{"pbzip", "fft", "kvdb"}

// spareSweep measures overhead vs available spare cores (4 threads).
func spareSweep(cfg Config) []spareRow {
	cfg = cfg.norm()
	const workers = 4
	var rows []spareRow
	for _, name := range spareSweepSet {
		nat := native(name, workers, cfg)
		for _, spares := range []int{0, 1, 2, 3, 4, 6, 8} {
			res, _ := record(name, workers, spares, cfg, nil)
			rows = append(rows, spareRow{Workload: name, Spares: spares, Overhead: over(res, nat)})
		}
	}
	return rows
}

// runSpareSweep prints F6. The headline is the shape below saturation —
// the mean overhead at 0, 1, 2 and W (= 4) spares; beyond W the curve is
// flat (EXPERIMENTS.md note 3).
func runSpareSweep(cfg Config) (Report, error) {
	rows := spareSweep(cfg)
	rep := Report{Tables: []Table{table("F6: overhead vs spare cores (4 threads)",
		[]string{"workload", "spares", "overhead"},
		rows, func(r spareRow) []string { return []string{r.Workload, fmt.Sprint(r.Spares), pct(r.Overhead)} })}}
	for _, spares := range []int{0, 1, 2, 4} {
		var at []spareRow
		for _, r := range rows {
			if r.Spares == spares {
				at = append(at, r)
			}
		}
		rep.Metrics = append(rep.Metrics, Metric{fmt.Sprintf("spares%d_%%", spares),
			avg(at, func(r spareRow) float64 { return r.Overhead }) * 100})
	}
	return rep, nil
}

// --- T4: uniprocessor baseline ------------------------------------------------------

// runUniBaseline compares classic uniprocessor record/replay with
// DoublePlay at 2 and 4 threads; the 4-thread means are the headline.
func runUniBaseline(cfg Config) (rep Report, err error) {
	cfg = cfg.norm()
	for _, workers := range []int{2, 4} {
		t := Table{Title: fmt.Sprintf("T4: uniprocessor R/R baseline vs DoublePlay (%d threads)", workers),
			Headers: []string{"workload", "threads", "native cyc", "uni cyc", "uni slowdown", "dp cyc", "dp overhead"}}
		var slow, dp float64
		for _, name := range cfg.subset(evalSet) {
			nat := native(name, workers, cfg)
			_, bt := build(name, workers, cfg)
			uni, err := baseline.RunUniprocessor(bt.Prog, bt.World, cfg.Costs, nil)
			if err != nil {
				panic(fmt.Sprintf("exp: uni %s: %v", name, err))
			}
			res, _ := record(name, workers, workers, cfg, nil)
			s := float64(uni.Cycles) / float64(nat.Cycles)
			t.Rows = append(t.Rows, []string{name, fmt.Sprint(workers), fmt.Sprint(nat.Cycles),
				fmt.Sprint(uni.Cycles), ratio(s), fmt.Sprint(res.Stats.CompletionCycles), pct(over(res, nat))})
			slow += s
			dp += over(res, nat)
		}
		n := float64(len(t.Rows))
		rep.Tables = append(rep.Tables, t)
		rep.Metrics = []Metric{{"uni_slowdown_x", slow / n}, {"dp_overhead_%", dp / n * 100}}
	}
	return rep, nil
}

// --- Ablation: sync-order enforcement ------------------------------------------------

// ablationRow compares divergence counts with and without the gate.
type ablationRow struct {
	Workload    string
	DivWithGate int
	DivNoGate   int
}

// ablation disables sync-order enforcement during epoch-parallel runs: any
// lock-acquisition race then surfaces as a divergence, demonstrating why
// the gate is load-bearing (DESIGN.md decision 1).
func ablation(cfg Config) []ablationRow {
	cfg = cfg.norm()
	const workers = 4
	var rows []ablationRow
	for _, name := range cfg.subset(evalSet) {
		res, _ := record(name, workers, workers, cfg, nil)
		noGate, _ := record(name, workers, workers, cfg, func(o *core.Options) { o.DisableSyncEnforcement = true })
		rows = append(rows, ablationRow{
			Workload:    name,
			DivWithGate: res.Stats.Divergences,
			DivNoGate:   noGate.Stats.Divergences,
		})
	}
	return rows
}

func runAblation(cfg Config) (Report, error) {
	rows := ablation(cfg)
	withGate, noGate := 0, 0
	for _, r := range rows {
		withGate += r.DivWithGate
		noGate += r.DivNoGate
	}
	rep := Report{
		Tables: []Table{table("Ablation: divergences with vs without sync-order enforcement (4 threads)",
			[]string{"workload", "with gate", "without gate"},
			rows, func(r ablationRow) []string {
				return []string{r.Workload, fmt.Sprint(r.DivWithGate), fmt.Sprint(r.DivNoGate)}
			})},
		Metrics: []Metric{{"divergences_without_gate", float64(noGate)}},
	}
	if withGate != 0 {
		return rep, fmt.Errorf("race-free suite diverged with the gate: %d", withGate)
	}
	return rep, nil
}

// --- Ablation: adaptive epoch growth -------------------------------------------

// adaptiveSet is the workload subset for the adaptive-epoch ablation.
var adaptiveSet = []string{"pbzip", "ocean", "webserve"}

// runAdaptive contrasts fixed 25k-cycle epochs against epochs that start
// at 6.25k cycles and grow 1.5x per verified epoch: early divergences are
// caught fast, while steady-state overhead stays close to the fixed
// configuration (DESIGN.md decision follow-up).
func runAdaptive(cfg Config) (Report, error) {
	cfg = cfg.norm()
	const workers = 4
	t := Table{Title: "Ablation: fixed vs adaptive (growing) epoch length (4 threads)",
		Headers: []string{"workload", "fixed epochs", "fixed overhead", "grown epochs", "grown overhead", "first epoch cyc"}}
	var fixedSum, grownSum float64
	for _, name := range cfg.subset(adaptiveSet) {
		nat := native(name, workers, cfg)
		fixed, _ := record(name, workers, workers, cfg, nil)
		// Start at a quarter of the steady-state epoch length and grow back
		// up to it: early epochs bound divergence-detection latency 4x
		// tighter, while the pipeline drain (set by the final epoch's
		// length) matches the fixed configuration.
		grown, _ := record(name, workers, workers, cfg, func(o *core.Options) {
			o.EpochCycles = cfg.EpochCycles / 4
			o.EpochGrowth = 1.5
			o.EpochCyclesMax = cfg.EpochCycles
		})
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(fixed.Stats.Epochs), pct(over(fixed, nat)),
			fmt.Sprint(grown.Stats.Epochs), pct(over(grown, nat)), fmt.Sprint(cfg.EpochCycles / 4)})
		fixedSum += over(fixed, nat)
		grownSum += over(grown, nat)
	}
	n := float64(len(t.Rows))
	return Report{Tables: []Table{t}, Metrics: []Metric{{"fixed_%", fixedSum / n * 100}, {"adaptive_%", grownSum / n * 100}}}, nil
}

// --- Extension study: adaptive spare-slot controller ---------------------------

// runAdaptiveSpares measures the spare-slot feedback controller against
// the two pins it moves between (4 threads): it starts at one active slot,
// bounded [1, workers], and should land between them.
func runAdaptiveSpares(cfg Config) (Report, error) {
	cfg = cfg.norm()
	const workers = 4
	t := Table{Title: "Extension: adaptive spare-slot controller (4 threads, start 1, bounds [1,4])",
		Headers: []string{"workload", "pinned@1", "adaptive", "pinned@4", "grows", "shrinks", "final"}}
	var lo, ad, hi float64
	for _, name := range cfg.subset(spareSweepSet) {
		nat := native(name, workers, cfg)
		pin1, _ := record(name, workers, 1, cfg, nil)
		pinW, _ := record(name, workers, workers, cfg, nil)
		ctl, _ := record(name, workers, 1, cfg, func(o *core.Options) {
			o.Adaptive, o.AdaptiveMinSpares, o.AdaptiveMaxSpares = true, 1, workers
		})
		t.Rows = append(t.Rows, []string{name, pct(over(pin1, nat)), pct(over(ctl, nat)), pct(over(pinW, nat)),
			fmt.Sprint(ctl.Stats.SpareGrows), fmt.Sprint(ctl.Stats.SpareShrinks), fmt.Sprint(ctl.Stats.ActiveSpares)})
		lo += over(pin1, nat)
		ad += over(ctl, nat)
		hi += over(pinW, nat)
	}
	n := float64(len(t.Rows))
	return Report{Tables: []Table{t},
		Metrics: []Metric{{"pinned1_%", lo / n * 100}, {"adaptive_%", ad / n * 100}, {"pinned4_%", hi / n * 100}}}, nil
}

// --- Extension study: sparse checkpoints vs replay speed ------------------------

// sparseReplaySet is the workload subset for the sparse-replay study.
var sparseReplaySet = []string{"ocean", "pbzip"}

// runSparseReplay measures, for several thinning strides, how much
// checkpoint state must be retained and how long segment-parallel replay
// takes on 4 cores.
func runSparseReplay(cfg Config) (Report, error) {
	cfg = cfg.norm()
	const workers = 4
	t := Table{Title: "Extension: checkpoint retention vs segment-parallel replay speed (4 cores)",
		Headers: []string{"workload", "stride", "checkpoints", "retained pages", "replay cyc"}}
	kept := map[int]int64{} // Σ retained pages by stride label
	for _, name := range cfg.subset(sparseReplaySet) {
		res, bt := record(name, workers, workers, cfg, nil)
		for _, stride := range []int{1, 2, 4, 8, 1 << 20} {
			sparse := replay.Thin(res.Boundaries, stride)
			rep, err := replay.Run(context.Background(), bt.Prog, replay.FromRecording(res.Recording),
				replay.Options{Boundaries: sparse, CPUs: workers, Costs: cfg.Costs})
			if err != nil {
				panic(fmt.Sprintf("exp: sparse replay %s stride %d: %v", name, stride, err))
			}
			var pages int64
			for _, b := range sparse {
				pages += int64(b.MappedPages)
			}
			if stride > len(res.Boundaries) {
				stride = len(res.Boundaries) // "keep only endpoints"
			}
			t.Rows = append(t.Rows, []string{name, fmt.Sprint(stride), fmt.Sprint(len(sparse)),
				fmt.Sprint(pages), fmt.Sprint(rep.Cycles)})
			kept[stride] += pages
		}
	}
	return Report{Tables: []Table{t},
		Metrics: []Metric{{"pages_stride1", float64(kept[1])}, {"pages_stride8", float64(kept[8])}}}, nil
}

// --- Extension: certified verify-skip ----------------------------------------

// verifySkipRow compares one workload's recording overhead under full
// verification vs the certified skip, alongside its certificate status.
type verifySkipRow struct {
	Workload   string
	CertStatus string
	Skipped    int // epochs committed without the epoch-parallel pass
	Epochs     int
	NativeCyc  int64
	AlwaysCyc  int64 // completion, VerifyAlways
	CertCyc    int64 // completion, VerifyCertified (== AlwaysCyc on fallback)
	AlwaysOver float64
	CertOver   float64
}

// verifySkip runs every workload of the suite under both verification
// policies and reports the certificate decision and the overhead each
// policy pays. It also enforces the soundness cross-checks end to end: a
// workload with known races must never skip verification, and a certified
// recording must replay sequentially to the same final state as its fully
// verified twin.
func verifySkip(cfg Config, workers, spares int) []verifySkipRow {
	cfg = cfg.norm()
	names := cfg.subset(workloads.Names())
	var rows []verifySkipRow
	for _, name := range names {
		wl, _ := build(name, workers, cfg)
		nat := native(name, workers, cfg)
		always, _ := record(name, workers, spares, cfg, nil)
		cert, cbt := record(name, workers, spares, cfg, func(o *core.Options) { o.VerifyPolicy = core.VerifyCertified })
		st := cert.Stats
		if wl.Racy && workers >= 2 && st.VerifySkipped > 0 {
			panic(fmt.Sprintf("exp: %s is marked racy but skipped verification — soundness bug", name))
		}
		if st.VerifySkipped > 0 {
			seq, err := replaySeq(cbt.Prog, cert.Recording, nil)
			if err != nil {
				panic(fmt.Sprintf("exp: replaying certified %s: %v", name, err))
			}
			if seq.FinalHash != always.FinalHash {
				panic(fmt.Sprintf("exp: certified %s replayed to a different state than its verified twin", name))
			}
		}
		rows = append(rows, verifySkipRow{
			Workload:   name,
			CertStatus: st.CertStatus,
			Skipped:    st.VerifySkipped,
			Epochs:     st.Epochs,
			NativeCyc:  nat.Cycles,
			AlwaysCyc:  always.Stats.CompletionCycles,
			CertCyc:    st.CompletionCycles,
			AlwaysOver: over(always, nat),
			CertOver:   over(cert, nat),
		})
	}
	return rows
}

// runVerifySkip prints the study at 2 threads and 2 spares. The metrics are
// the mean overhead across the suite under each policy, and over the
// certified workloads alone — the population the optimisation helps.
func runVerifySkip(cfg Config) (Report, error) {
	const workers, spares = 2, 2
	rows := verifySkip(cfg, workers, spares)
	var skipped []verifySkipRow
	for _, r := range rows {
		if r.Skipped > 0 {
			skipped = append(skipped, r)
		}
	}
	always := func(r verifySkipRow) float64 { return r.AlwaysOver }
	cert := func(r verifySkipRow) float64 { return r.CertOver }
	rep := Report{
		Tables: []Table{table(fmt.Sprintf("Extension: certified verify-skip (%d threads, %d spares)", workers, spares),
			[]string{"workload", "certificate", "skipped", "native cyc", "always cyc", "certified cyc",
				"overhead always", "overhead certified"},
			rows, func(r verifySkipRow) []string {
				return []string{r.Workload, r.CertStatus,
					fmt.Sprintf("%d/%d", r.Skipped, r.Epochs),
					fmt.Sprint(r.NativeCyc), fmt.Sprint(r.AlwaysCyc), fmt.Sprint(r.CertCyc),
					pct(r.AlwaysOver), pct(r.CertOver)}
			})},
		Metrics: []Metric{
			{"always_%", avg(rows, always) * 100}, {"certified_%", avg(rows, cert) * 100},
			{"skip_always_%", avg(skipped, always) * 100}, {"skip_certified_%", avg(skipped, cert) * 100},
		},
	}
	if len(skipped) == 0 {
		return rep, fmt.Errorf("no workload certified race-free — the verify-skip path never ran")
	}
	return rep, nil
}
