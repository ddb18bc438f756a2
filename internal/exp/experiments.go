package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"doubleplay/internal/baseline"
	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/race"
	"doubleplay/internal/replay"
	"doubleplay/internal/sched"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// --- T1: benchmark characteristics -------------------------------------------

// CharRow describes one workload's execution profile (Table 1).
type CharRow struct {
	Workload  string
	Kind      string
	Workers   int
	Retired   int64
	SyncOps   int
	Syscalls  int
	Pages     int
	Epochs    int
	NativeCyc int64
}

// Table1 profiles every evaluation workload.
func Table1(cfg Config) []CharRow {
	cfg = cfg.norm()
	var rows []CharRow
	for _, name := range cfg.evalSet() {
		wl := workloads.Get(name)
		for _, workers := range []int{2, 4} {
			nat := native(name, workers, cfg)
			res, _ := record(name, workers, workers, cfg)
			last := res.Boundaries[len(res.Boundaries)-1]
			rows = append(rows, CharRow{
				Workload:  name,
				Kind:      wl.Kind,
				Workers:   workers,
				Retired:   res.Stats.Retired,
				SyncOps:   res.Stats.SyncEvents,
				Syscalls:  res.Stats.Syscalls,
				Pages:     last.MappedPages,
				Epochs:    res.Stats.Epochs,
				NativeCyc: nat.Cycles,
			})
		}
	}
	return rows
}

// RenderTable1 runs and prints T1.
func RenderTable1(w io.Writer, cfg Config) {
	rows := Table1(cfg)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, r.Kind, fmt.Sprint(r.Workers), fmt.Sprint(r.Retired),
			fmt.Sprint(r.SyncOps), fmt.Sprint(r.Syscalls), fmt.Sprint(r.Pages),
			fmt.Sprint(r.Epochs), fmt.Sprint(r.NativeCyc)}
	}
	Table(w, "T1: benchmark characteristics",
		[]string{"workload", "kind", "threads", "instrs", "sync ops", "syscalls", "pages", "epochs", "native cyc"}, out)
}

// --- F1/F2/F3: logging overhead ----------------------------------------------

// OverheadRow is one bar of the logging-overhead figures.
type OverheadRow struct {
	Workload    string
	Workers     int
	Spares      int
	NativeCyc   int64
	RecordCyc   int64 // uniparallel completion time
	Overhead    float64
	Divergences int
}

// Overhead measures recording overhead for every evaluation workload at the
// given worker count with the given spare cores (F1: workers=2, F2:
// workers=4; F3 uses spares=0).
func Overhead(cfg Config, workers, spares int) []OverheadRow {
	cfg = cfg.norm()
	var rows []OverheadRow
	for _, name := range cfg.evalSet() {
		nat := native(name, workers, cfg)
		res, _ := record(name, workers, spares, cfg)
		rows = append(rows, OverheadRow{
			Workload:    name,
			Workers:     workers,
			Spares:      spares,
			NativeCyc:   nat.Cycles,
			RecordCyc:   res.Stats.CompletionCycles,
			Overhead:    float64(res.Stats.CompletionCycles)/float64(nat.Cycles) - 1,
			Divergences: res.Stats.Divergences,
		})
	}
	return rows
}

// MeanOverhead averages the overhead column.
func MeanOverhead(rows []OverheadRow) float64 {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = r.Overhead
	}
	return mean(vals)
}

// RenderOverhead prints an overhead figure.
func RenderOverhead(w io.Writer, cfg Config, workers, spares int, title string) {
	rows := Overhead(cfg, workers, spares)
	out := make([][]string, 0, len(rows)+1)
	for _, r := range rows {
		out = append(out, []string{r.Workload, fmt.Sprint(r.Workers), fmt.Sprint(r.Spares),
			fmt.Sprint(r.NativeCyc), fmt.Sprint(r.RecordCyc), pct(r.Overhead), fmt.Sprint(r.Divergences)})
	}
	out = append(out, []string{"AVERAGE", "", "", "", "", pct(MeanOverhead(rows)), ""})
	Table(w, title,
		[]string{"workload", "threads", "spares", "native cyc", "record cyc", "overhead", "divergences"}, out)
}

// --- T2: log sizes -------------------------------------------------------------

// LogSizeRow compares DoublePlay's replay log with the CREW ownership log,
// and measures the v6 on-disk container: sectioned size with and without
// per-section compression, plus the read locality the section index buys
// (bytes touched seeking one epoch vs scanning all of them).
type LogSizeRow struct {
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

// LogSize measures log sizes at 4 worker threads.
func LogSize(cfg Config) []LogSizeRow {
	cfg = cfg.norm()
	const workers = 4
	var rows []LogSizeRow
	for _, name := range cfg.evalSet() {
		res, _ := record(name, workers, workers, cfg)
		_, bt := build(name, workers, cfg)
		crew, err := baseline.RunCREW(bt.Prog, bt.World, workers, cfg.Seed, cfg.Costs, cfg.Trace)
		if err != nil {
			panic(fmt.Sprintf("exp: crew %s: %v", name, err))
		}
		_, bt2 := build(name, workers, cfg)
		uni, err := baseline.RunUniprocessor(bt2.Prog, bt2.World, cfg.Costs, cfg.Trace)
		if err != nil {
			panic(fmt.Sprintf("exp: uni %s: %v", name, err))
		}
		raw := dplog.MarshalBytesWith(res.Recording, dplog.EncodeOptions{})
		comp := dplog.MarshalBytes(res.Recording)
		seekB, scanB := seekCost(name, comp)
		m := float64(res.Stats.Retired) / 1e6
		rows = append(rows, LogSizeRow{
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

// RenderLogSize prints T2.
func RenderLogSize(w io.Writer, cfg Config) {
	rows := LogSize(cfg)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Retired), fmt.Sprint(r.DPBytes),
			fmt.Sprintf("%.0f", r.DPPerM), fmt.Sprint(r.CrewBytes), fmt.Sprintf("%.0f", r.CrewPerM),
			fmt.Sprint(r.CrewTrans), fmt.Sprint(r.UniBytes),
			fmt.Sprint(r.SectBytes), fmt.Sprint(r.CompBytes),
			fmt.Sprint(r.SeekBytes), fmt.Sprint(r.ScanBytes)}
	}
	Table(w, "T2: log size, DoublePlay vs CREW order logging (4 threads)",
		[]string{"workload", "instrs", "dp bytes", "dp B/Minstr", "crew bytes", "crew B/Minstr",
			"crew faults", "uni bytes", "v6 raw", "v6 file", "seek B", "scan B"}, out)
}

// --- F4: replay speed -----------------------------------------------------------

// ReplayRow is one bar of the replay-speed figure.
type ReplayRow struct {
	Workload  string
	Workers   int
	NativeCyc int64
	SeqCyc    int64
	ParCyc    int64
	SeqRatio  float64
	ParRatio  float64
}

// ReplaySpeed measures sequential vs epoch-parallel replay time.
func ReplaySpeed(cfg Config, workers int) []ReplayRow {
	cfg = cfg.norm()
	var rows []ReplayRow
	for _, name := range cfg.evalSet() {
		nat := native(name, workers, cfg)
		res, bt := record(name, workers, workers, cfg)
		seq, err := replay.Sequential(bt.Prog, res.Recording, cfg.Costs, cfg.Trace)
		if err != nil {
			panic(fmt.Sprintf("exp: seq replay %s: %v", name, err))
		}
		par, err := replay.Run(context.Background(), bt.Prog, replay.FromRecording(res.Recording),
			replay.Options{Boundaries: res.Boundaries, CPUs: workers, Costs: cfg.Costs, Trace: cfg.Trace})
		if err != nil {
			panic(fmt.Sprintf("exp: par replay %s: %v", name, err))
		}
		rows = append(rows, ReplayRow{
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

// RenderReplaySpeed prints F4.
func RenderReplaySpeed(w io.Writer, cfg Config, workers int) {
	rows := ReplaySpeed(cfg, workers)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Workers), fmt.Sprint(r.NativeCyc),
			fmt.Sprint(r.SeqCyc), ratio(r.SeqRatio), fmt.Sprint(r.ParCyc), ratio(r.ParRatio)}
	}
	Table(w, fmt.Sprintf("F4: replay time normalized to native (%d threads)", workers),
		[]string{"workload", "threads", "native cyc", "seq cyc", "seq/native", "par cyc", "par/native"}, out)
}

// --- F5: epoch-length sensitivity -----------------------------------------------

// EpochSweepRow is one point of the epoch-length sweep.
type EpochSweepRow struct {
	Workload    string
	EpochCycles int64
	Overhead    float64
	Epochs      int
	Divergences int
}

// EpochSweepLens are the swept epoch lengths.
var EpochSweepLens = []int64{12_500, 25_000, 50_000, 100_000, 200_000, 400_000}

// EpochSweepSet is the workload subset used for the sweep.
var EpochSweepSet = []string{"pbzip", "ocean", "webserve"}

// EpochSweep measures overhead as a function of epoch length (4 threads).
func EpochSweep(cfg Config) []EpochSweepRow {
	cfg = cfg.norm()
	const workers = 4
	var rows []EpochSweepRow
	for _, name := range EpochSweepSet {
		nat := native(name, workers, cfg)
		for _, el := range EpochSweepLens {
			c := cfg
			c.EpochCycles = el
			res, _ := record(name, workers, workers, c)
			rows = append(rows, EpochSweepRow{
				Workload:    name,
				EpochCycles: el,
				Overhead:    float64(res.Stats.CompletionCycles)/float64(nat.Cycles) - 1,
				Epochs:      res.Stats.Epochs,
				Divergences: res.Stats.Divergences,
			})
		}
	}
	return rows
}

// RenderEpochSweep prints F5.
func RenderEpochSweep(w io.Writer, cfg Config) {
	rows := EpochSweep(cfg)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.EpochCycles), fmt.Sprint(r.Epochs),
			pct(r.Overhead), fmt.Sprint(r.Divergences)}
	}
	Table(w, "F5: overhead vs epoch length (4 threads)",
		[]string{"workload", "epoch cycles", "epochs", "overhead", "divergences"}, out)
}

// --- T3: divergence and forward recovery ----------------------------------------

// DivergenceRow summarises racy-workload behaviour across seeds.
type DivergenceRow struct {
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

// Divergence records each racy workload under many seeds, verifying that
// every recovered log still replays, and runs the happens-before detector
// to attribute the divergences to data races.
func Divergence(cfg Config, seeds int) []DivergenceRow {
	cfg = cfg.norm()
	if seeds <= 0 {
		seeds = 12
	}
	const workers = 4
	var rows []DivergenceRow
	for _, name := range RacySet {
		row := DivergenceRow{Workload: name, Seeds: seeds}
		for s := 0; s < seeds; s++ {
			c := cfg
			c.Seed = cfg.Seed + int64(s)*101
			res, bt := record(name, workers, workers, c)
			row.Epochs += res.Stats.Epochs
			row.Divergences += res.Stats.Divergences
			row.HashRecoveries += res.Stats.HashRecoveries
			row.RerunRecoveries += res.Stats.RerunRecoveries
			row.SquashedCyc += res.Stats.SquashedCycles
			if _, err := replay.Sequential(bt.Prog, res.Recording, cfg.Costs, cfg.Trace); err == nil {
				row.ReplaysOK++
			}
		}
		// Race attribution: one uniprocessor run under the detector.
		wl := workloads.Get(name)
		bt := wl.Build(workloads.Params{Workers: workers, Scale: cfg.Scale, Seed: cfg.Seed})
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

// RenderDivergence prints T3.
func RenderDivergence(w io.Writer, cfg Config, seeds int) {
	rows := Divergence(cfg, seeds)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Seeds), fmt.Sprint(r.Epochs),
			fmt.Sprint(r.Divergences), fmt.Sprint(r.HashRecoveries), fmt.Sprint(r.RerunRecoveries),
			fmt.Sprintf("%d/%d", r.ReplaysOK, r.Seeds), fmt.Sprint(r.RacyAddrs), fmt.Sprint(r.SquashedCyc)}
	}
	Table(w, "T3: divergence and forward recovery on racy programs (4 threads)",
		[]string{"workload", "seeds", "epochs", "divergences", "adopt-recov", "rerun-recov", "replays ok", "racy addrs", "squashed cyc"}, out)
}

// --- F6: spare-core sweep ---------------------------------------------------------

// SpareRow is one point of the spare-core scalability figure.
type SpareRow struct {
	Workload string
	Spares   int
	Overhead float64
}

// SpareSweepSet is the workload subset for the spare-core sweep.
var SpareSweepSet = []string{"pbzip", "fft", "kvdb"}

// SpareSweep measures overhead vs available spare cores (4 threads).
func SpareSweep(cfg Config) []SpareRow {
	cfg = cfg.norm()
	const workers = 4
	var rows []SpareRow
	for _, name := range SpareSweepSet {
		nat := native(name, workers, cfg)
		for _, spares := range []int{0, 1, 2, 3, 4, 6, 8} {
			res, _ := record(name, workers, spares, cfg)
			rows = append(rows, SpareRow{
				Workload: name,
				Spares:   spares,
				Overhead: float64(res.Stats.CompletionCycles)/float64(nat.Cycles) - 1,
			})
		}
	}
	return rows
}

// RenderSpareSweep prints F6.
func RenderSpareSweep(w io.Writer, cfg Config) {
	rows := SpareSweep(cfg)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Spares), pct(r.Overhead)}
	}
	Table(w, "F6: overhead vs spare cores (4 threads)",
		[]string{"workload", "spares", "overhead"}, out)
}

// --- T4: uniprocessor baseline ------------------------------------------------------

// UniRow compares DoublePlay against classic uniprocessor record/replay.
type UniRow struct {
	Workload    string
	Workers     int
	NativeCyc   int64
	UniCyc      int64
	UniSlowdown float64
	DPCyc       int64
	DPOverhead  float64
}

// UniBaseline measures the uniprocessor baseline slowdown (T4).
func UniBaseline(cfg Config, workers int) []UniRow {
	cfg = cfg.norm()
	var rows []UniRow
	for _, name := range cfg.evalSet() {
		nat := native(name, workers, cfg)
		_, bt := build(name, workers, cfg)
		uni, err := baseline.RunUniprocessor(bt.Prog, bt.World, cfg.Costs, cfg.Trace)
		if err != nil {
			panic(fmt.Sprintf("exp: uni %s: %v", name, err))
		}
		res, _ := record(name, workers, workers, cfg)
		rows = append(rows, UniRow{
			Workload:    name,
			Workers:     workers,
			NativeCyc:   nat.Cycles,
			UniCyc:      uni.Cycles,
			UniSlowdown: float64(uni.Cycles) / float64(nat.Cycles),
			DPCyc:       res.Stats.CompletionCycles,
			DPOverhead:  float64(res.Stats.CompletionCycles)/float64(nat.Cycles) - 1,
		})
	}
	return rows
}

// RenderUniBaseline prints T4.
func RenderUniBaseline(w io.Writer, cfg Config, workers int) {
	rows := UniBaseline(cfg, workers)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Workers), fmt.Sprint(r.NativeCyc),
			fmt.Sprint(r.UniCyc), ratio(r.UniSlowdown), fmt.Sprint(r.DPCyc), pct(r.DPOverhead)}
	}
	Table(w, fmt.Sprintf("T4: uniprocessor R/R baseline vs DoublePlay (%d threads)", workers),
		[]string{"workload", "threads", "native cyc", "uni cyc", "uni slowdown", "dp cyc", "dp overhead"}, out)
}

// --- Ablation: sync-order enforcement ------------------------------------------------

// AblationRow compares divergence counts with and without the gate.
type AblationRow struct {
	Workload    string
	DivWithGate int
	DivNoGate   int
}

// Ablation disables sync-order enforcement during epoch-parallel runs: any
// lock-acquisition race then surfaces as a divergence, demonstrating why
// the gate is load-bearing (DESIGN.md decision 1).
func Ablation(cfg Config) []AblationRow {
	cfg = cfg.norm()
	const workers = 4
	var rows []AblationRow
	for _, name := range cfg.evalSet() {
		res, _ := record(name, workers, workers, cfg)
		_, bt := build(name, workers, cfg)
		noGate, err := coreRecordNoGate(bt, workers, cfg)
		if err != nil {
			panic(fmt.Sprintf("exp: ablation %s: %v", name, err))
		}
		rows = append(rows, AblationRow{
			Workload:    name,
			DivWithGate: res.Stats.Divergences,
			DivNoGate:   noGate,
		})
	}
	return rows
}

// --- Ablation: adaptive epoch growth -------------------------------------------

// AdaptiveRow compares fixed against growing epoch lengths.
type AdaptiveRow struct {
	Workload      string
	FixedEpochs   int
	FixedOverhead float64
	GrownEpochs   int
	GrownOverhead float64
	FirstEpochCyc int64 // divergence-detection latency bound early in the run
}

// AdaptiveSet is the workload subset for the adaptive-epoch ablation.
var AdaptiveSet = []string{"pbzip", "ocean", "webserve"}

// Adaptive contrasts fixed 25k-cycle epochs against epochs that start at
// 6.25k cycles and grow 1.5x per verified epoch: early divergences are
// caught fast, while steady-state overhead stays close to the fixed
// configuration (DESIGN.md decision follow-up).
func Adaptive(cfg Config) []AdaptiveRow {
	cfg = cfg.norm()
	const workers = 4
	set := AdaptiveSet
	if len(cfg.Workloads) > 0 {
		set = cfg.Workloads
	}
	var rows []AdaptiveRow
	for _, name := range set {
		nat := native(name, workers, cfg)
		fixed, _ := record(name, workers, workers, cfg)

		// Start at a quarter of the steady-state epoch length and grow back
		// up to it: early epochs bound divergence-detection latency 4x
		// tighter, while the pipeline drain (set by the final epoch's
		// length) matches the fixed configuration.
		_, bt := build(name, workers, cfg)
		grown, err := core.Record(bt.Prog, bt.World, core.Options{
			Workers:        workers,
			RecordCPUs:     workers,
			SpareCPUs:      workers,
			EpochCycles:    cfg.EpochCycles / 4,
			EpochGrowth:    1.5,
			EpochCyclesMax: cfg.EpochCycles,
			Seed:           cfg.Seed,
			Costs:          cfg.Costs,
		})
		if err != nil {
			panic(fmt.Sprintf("exp: adaptive %s: %v", name, err))
		}
		rows = append(rows, AdaptiveRow{
			Workload:      name,
			FixedEpochs:   fixed.Stats.Epochs,
			FixedOverhead: float64(fixed.Stats.CompletionCycles)/float64(nat.Cycles) - 1,
			GrownEpochs:   grown.Stats.Epochs,
			GrownOverhead: float64(grown.Stats.CompletionCycles)/float64(nat.Cycles) - 1,
			FirstEpochCyc: cfg.EpochCycles / 4,
		})
	}
	return rows
}

// RenderAdaptive prints the adaptive-epoch ablation.
func RenderAdaptive(w io.Writer, cfg Config) {
	rows := Adaptive(cfg)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.FixedEpochs), pct(r.FixedOverhead),
			fmt.Sprint(r.GrownEpochs), pct(r.GrownOverhead), fmt.Sprint(r.FirstEpochCyc)}
	}
	Table(w, "Ablation: fixed vs adaptive (growing) epoch length (4 threads)",
		[]string{"workload", "fixed epochs", "fixed overhead", "grown epochs", "grown overhead", "first epoch cyc"}, out)
}

// --- Extension study: adaptive spare-slot controller ---------------------------

// AdaptiveSpareRow compares a fixed spare count against the feedback
// controller for one workload: the controller starts at one active slot,
// bounded [1, workers], and should land between the two pins.
type AdaptiveSpareRow struct {
	Workload     string
	FixedLowOver float64 // pinned at 1 spare
	AdaptOver    float64 // controller, starting at 1
	FixedHiOver  float64 // pinned at workers spares
	Grows        int
	Shrinks      int
	FinalActive  int
}

// AdaptiveSpares measures the controller against the two pins it moves
// between (4 threads).
func AdaptiveSpares(cfg Config) []AdaptiveSpareRow {
	cfg = cfg.norm()
	const workers = 4
	set := SpareSweepSet
	if len(cfg.Workloads) > 0 {
		set = cfg.Workloads
	}
	fixed := cfg
	fixed.Adaptive = false
	adapt := cfg
	adapt.Adaptive = true
	adapt.AdaptiveMinSpares = 1
	adapt.AdaptiveMaxSpares = workers
	var rows []AdaptiveSpareRow
	for _, name := range set {
		nat := native(name, workers, cfg)
		over := func(res *core.Result) float64 {
			return float64(res.Stats.CompletionCycles)/float64(nat.Cycles) - 1
		}
		lo, _ := record(name, workers, 1, fixed)
		hi, _ := record(name, workers, workers, fixed)
		ad, _ := record(name, workers, 1, adapt)
		rows = append(rows, AdaptiveSpareRow{
			Workload:     name,
			FixedLowOver: over(lo),
			AdaptOver:    over(ad),
			FixedHiOver:  over(hi),
			Grows:        ad.Stats.SpareGrows,
			Shrinks:      ad.Stats.SpareShrinks,
			FinalActive:  ad.Stats.ActiveSpares,
		})
	}
	return rows
}

// RenderAdaptiveSpares prints the controller study.
func RenderAdaptiveSpares(w io.Writer, cfg Config) {
	rows := AdaptiveSpares(cfg)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, pct(r.FixedLowOver), pct(r.AdaptOver), pct(r.FixedHiOver),
			fmt.Sprint(r.Grows), fmt.Sprint(r.Shrinks), fmt.Sprint(r.FinalActive)}
	}
	Table(w, "Extension: adaptive spare-slot controller (4 threads, start 1, bounds [1,4])",
		[]string{"workload", "pinned@1", "adaptive", "pinned@4", "grows", "shrinks", "final"}, out)
}

// --- Extension study: sparse checkpoints vs replay speed ------------------------

// SparseReplayRow is one point of the checkpoint-memory/replay-speed
// trade-off study.
type SparseReplayRow struct {
	Workload  string
	Stride    int
	Kept      int   // checkpoints retained
	KeptPages int64 // Σ mapped pages across retained checkpoints
	ReplayCyc int64 // modelled segment-parallel replay time on 4 cores
}

// SparseReplaySet is the workload subset for the sparse-replay study.
var SparseReplaySet = []string{"ocean", "pbzip"}

// SparseReplay measures, for several thinning strides, how much checkpoint
// state must be retained and how long segment-parallel replay takes.
func SparseReplay(cfg Config) []SparseReplayRow {
	cfg = cfg.norm()
	const workers = 4
	set := SparseReplaySet
	if len(cfg.Workloads) > 0 {
		set = cfg.Workloads
	}
	var rows []SparseReplayRow
	for _, name := range set {
		res, bt := record(name, workers, workers, cfg)
		for _, stride := range []int{1, 2, 4, 8, 1 << 20} {
			sparse := res.ThinBoundaries(stride)
			rep, err := replay.Run(context.Background(), bt.Prog, replay.FromRecording(res.Recording),
				replay.Options{Boundaries: sparse, CPUs: workers, Costs: cfg.Costs, Trace: cfg.Trace})
			if err != nil {
				panic(fmt.Sprintf("exp: sparse replay %s stride %d: %v", name, stride, err))
			}
			var pages int64
			for _, b := range sparse {
				pages += int64(b.MappedPages)
			}
			label := stride
			if stride > len(res.Boundaries) {
				label = len(res.Boundaries) // "keep only endpoints"
			}
			rows = append(rows, SparseReplayRow{
				Workload:  name,
				Stride:    label,
				Kept:      len(sparse),
				KeptPages: pages,
				ReplayCyc: rep.Cycles,
			})
		}
	}
	return rows
}

// RenderSparseReplay prints the sparse-replay study.
func RenderSparseReplay(w io.Writer, cfg Config) {
	rows := SparseReplay(cfg)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Stride), fmt.Sprint(r.Kept),
			fmt.Sprint(r.KeptPages), fmt.Sprint(r.ReplayCyc)}
	}
	Table(w, "Extension: checkpoint retention vs segment-parallel replay speed (4 cores)",
		[]string{"workload", "stride", "checkpoints", "retained pages", "replay cyc"}, out)
}

// RenderAblation prints the ablation table.
func RenderAblation(w io.Writer, cfg Config) {
	rows := Ablation(cfg)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.DivWithGate), fmt.Sprint(r.DivNoGate)}
	}
	Table(w, "Ablation: divergences with vs without sync-order enforcement (4 threads)",
		[]string{"workload", "with gate", "without gate"}, out)
}

// --- Extension: certified verify-skip ----------------------------------------

// VerifySkipRow compares one workload's recording overhead under full
// verification vs the certified skip, alongside its certificate status.
type VerifySkipRow struct {
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

// VerifySkip runs every workload — the evaluation set, the racy set, and
// sigping — under both verification policies and reports the certificate
// decision and the overhead each policy pays. It also enforces the
// soundness cross-checks end to end: a workload with known races must
// never skip verification, and a certified recording must replay
// sequentially to the same final state as its fully verified twin.
func VerifySkip(cfg Config, workers, spares int) []VerifySkipRow {
	cfg = cfg.norm()
	cfg.VerifyPolicy = core.VerifyAlways
	names := cfg.Workloads
	if len(names) == 0 {
		names = append(append(append([]string{}, EvalSet...), RacySet...), "sigping")
	}
	var rows []VerifySkipRow
	for _, name := range names {
		wl, _ := build(name, workers, cfg)
		nat := native(name, workers, cfg)
		always, _ := record(name, workers, spares, cfg)
		ccfg := cfg
		ccfg.VerifyPolicy = core.VerifyCertified
		cert, cbt := record(name, workers, spares, ccfg)
		st := cert.Stats
		if wl.Racy && workers >= 2 && st.VerifySkipped > 0 {
			panic(fmt.Sprintf("exp: %s is marked racy but skipped verification — soundness bug", name))
		}
		if st.VerifySkipped > 0 {
			seq, err := replay.Sequential(cbt.Prog, cert.Recording, nil, nil)
			if err != nil {
				panic(fmt.Sprintf("exp: replaying certified %s: %v", name, err))
			}
			if seq.FinalHash != always.FinalHash {
				panic(fmt.Sprintf("exp: certified %s replayed to a different state than its verified twin", name))
			}
		}
		rows = append(rows, VerifySkipRow{
			Workload:   name,
			CertStatus: st.CertStatus,
			Skipped:    st.VerifySkipped,
			Epochs:     st.Epochs,
			NativeCyc:  nat.Cycles,
			AlwaysCyc:  always.Stats.CompletionCycles,
			CertCyc:    st.CompletionCycles,
			AlwaysOver: float64(always.Stats.CompletionCycles)/float64(nat.Cycles) - 1,
			CertOver:   float64(st.CompletionCycles)/float64(nat.Cycles) - 1,
		})
	}
	return rows
}

// RenderVerifySkip prints the certified verify-skip study.
func RenderVerifySkip(w io.Writer, cfg Config, workers, spares int) {
	rows := VerifySkip(cfg, workers, spares)
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, r.CertStatus,
			fmt.Sprintf("%d/%d", r.Skipped, r.Epochs),
			fmt.Sprint(r.NativeCyc), fmt.Sprint(r.AlwaysCyc), fmt.Sprint(r.CertCyc),
			pct(r.AlwaysOver), pct(r.CertOver)}
	}
	Table(w, fmt.Sprintf("Extension: certified verify-skip (%d threads, %d spares)", workers, spares),
		[]string{"workload", "certificate", "skipped", "native cyc", "always cyc", "certified cyc",
			"overhead always", "overhead certified"}, out)
}
