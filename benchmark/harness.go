package main

import (
	"fmt"
	"runtime"
	"time"
)

// opTimeout bounds every op. An op that exceeds it is a failure, never a
// hang: the harness stops waiting and counts it.
const opTimeout = 30 * time.Second

// roundResult is what one round of a workload reports.
type roundResult struct {
	wall     time.Duration
	opMs     []float64 // one latency sample per op
	failed   int       // ops with at least one failed call or check
	failures []string  // the first few failure messages, for the report
	dirty    bool      // a failure was reported since the last settle
	instrs   int64     // guest instructions the round's ops executed or stood for
	// logBytes and logInstrs are the encoded v6 bytes and the guest
	// instructions of the distinct recordings the round handled.
	logBytes, logInstrs int64
	// redrive holds the re-driven measurements of a traced round. They run
	// after the round's clock has stopped, so they cost the round nothing.
	redrive []func()
}

// fail reports a failed call or check. However many an op reports, it
// counts as one failed op.
func (r *roundResult) fail(format string, args ...any) {
	r.dirty = true
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// opDone closes an op that began at start: one latency sample, and one
// failed op if anything it did was reported through fail.
func (r *roundResult) opDone(start time.Time) {
	r.opMs = append(r.opMs, ms(time.Since(start)))
	r.settle()
}

// settle turns failures reported outside any op (round maintenance) into one
// failed op.
func (r *roundResult) settle() {
	if r.dirty {
		r.failed++
		r.dirty = false
	}
}

// finals are the numbers a workload reads once, at the end of the window.
type finals struct {
	storedBytes  int64 // bytes at rest
	logicalBytes int64 // uncompressed v6 bytes they stand for
	failures     []string
}

// workload is one closed-loop op list. Rounds are identical in work (only
// the guest seeds of round-indexed workloads differ), so round times are
// samples of one quantity.
type workload interface {
	name() string
	// nominalRound is how long one round takes on the reference box; the
	// harness sizes the number of rounds from it.
	nominalRound() time.Duration
	// setup builds everything the rounds need. The harness calls it several
	// times per run, with teardown in between.
	setup() error
	// round runs one round; idx 0 is the warm-up. tr is nil when untraced.
	round(tr *tracer, idx int) roundResult
	// finish reads end-of-window state and runs end-of-window checks.
	finish() finals
	teardown()
}

// runConfig is how much a run measures.
type runConfig struct {
	setups int           // set-up repetitions (median reported)
	rounds int           // measured rounds, after one warm-up
	window time.Duration // the requested window; zero disables the safety valve
	// refInstrs is the length of a reference-kernel slice; zero means
	// refSliceInstrs. Only the smoke test shortens it.
	refInstrs int
}

// roundsFor sizes the measured window from -seconds and the workload's
// calibrated round length, so the work is fixed by (-seed, -seconds) and does
// not stretch or shrink with the machine's mood.
func roundsFor(w workload, seconds int) int {
	n := int((time.Duration(seconds)*time.Second + w.nominalRound()/2) / w.nominalRound())
	if n < minRounds {
		n = minRounds
	}
	return n
}

// minRounds is the fewest rounds a window may hold.
const minRounds = 3

// runResult is one workload's untraced measurement.
type runResult struct {
	Workload  string    `json:"workload"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Rounds    int       `json:"rounds"`
	OpsPerRnd int       `json:"ops_per_round"`
	Samples   int       `json:"latency_samples"`
	RoundMs   []float64 `json:"round_ms"`      // wall clock, as measured
	RefMs     []float64 `json:"ref_slice_ms"`  // reference-kernel slices: before round 1, after every round
	Speed     []float64 `json:"round_speed_x"` // machine-speed factor around each round
	RoundIQR  float64   `json:"round_iqr_pct"` // of the rounds at reference speed
	OpP95Ms   float64   `json:"op_p95_ms"`
	SetupS    []float64 `json:"setup_s_samples"` // wall clock, as measured
	WindowS   float64   `json:"window_s"`
	// Metrics are the end-to-end metrics: host times at reference speed.
	// Wall holds the same host-time metrics as the wall clock read them.
	Metrics map[string]float64 `json:"metrics"`
	Wall    map[string]float64 `json:"wall_clock"`
}

// measure runs the untraced protocol: repeated set-up, one warm-up round,
// then cfg.rounds measured rounds with a collection between rounds. A slice
// of the reference kernel runs before and after every set-up and every round;
// the slices around a piece of work give the machine-speed factor its wall
// time is divided by (two for a set-up, the nearest four for a round).
func measure(w workload, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: w.name(), Rounds: cfg.rounds, Metrics: map[string]float64{}, Wall: map[string]float64{}}
	if cfg.refInstrs == 0 {
		cfg.refInstrs = refSliceInstrs
	}
	ref := newRefMachine(cfg.refInstrs)
	ref.slice() // the first slice faults the kernel's memory in
	var setupRef []float64
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		k0 := ref.slice()
		var err error
		d := timed(func() { err = w.setup() })
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		res.SetupS = append(res.SetupS, d.Seconds())
		setupRef = append(setupRef, d.Seconds()/ref.speedFactor(k0, ref.slice()))
		if i < cfg.setups-1 {
			w.teardown()
		}
	}
	defer w.teardown()

	if warm := w.round(nil, 0); warm.failed > 0 {
		res.Failures = append(res.Failures, warm.failures...)
		res.Failed += warm.failed
		res.Attempted += len(warm.opMs)
	}

	var ms0, ms1 runtime.MemStats
	var rounds []roundResult
	var logBytes, logInstrs int64
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	slices := []time.Duration{ref.slice()} // slices[i], slices[i+1] bracket round i
	for r := 1; r <= cfg.rounds; r++ {
		// Safety valve: the work is fixed, so a machine at half speed would
		// take the run past its caller's patience. Stop at one and a half
		// windows; the medians stand on the rounds that ran.
		if r > minRounds && cfg.window > 0 && time.Since(t0) > cfg.window*3/2 {
			res.Rounds = r - 1
			break
		}
		rr := w.round(nil, r)
		runtime.GC()
		slices = append(slices, ref.slice())
		rounds = append(rounds, rr)

		res.RoundMs = append(res.RoundMs, ms(rr.wall))
		res.Attempted += len(rr.opMs)
		res.Failed += rr.failed
		res.Failures = append(res.Failures, rr.failures...)
		res.OpsPerRnd = len(rr.opMs)
		logBytes += rr.logBytes
		logInstrs += rr.logInstrs
	}
	res.WindowS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)

	fin := w.finish()
	res.Failed += len(fin.failures)
	res.Failures = append(res.Failures, fin.failures...)
	if len(res.Failures) > 8 {
		res.Failures = res.Failures[:8]
	}

	// Every round at reference speed: its wall time divided by the
	// machine-speed factor around it.
	var opsRate, instrRate, p50s, refMs, pooled []float64
	var opsWall, instrWall, p50Wall []float64
	for i, rr := range rounds {
		f := ref.speedAround(slices, i)
		res.RefMs = append(res.RefMs, ms(slices[i]))
		res.Speed = append(res.Speed, f)
		ops, minstr, p50 := float64(len(rr.opMs))/rr.wall.Seconds(), float64(rr.instrs)/1e6/rr.wall.Seconds(), median(rr.opMs)
		opsWall, instrWall, p50Wall = append(opsWall, ops), append(instrWall, minstr), append(p50Wall, p50)
		opsRate, instrRate, p50s = append(opsRate, ops*f), append(instrRate, minstr*f), append(p50s, p50/f)
		refMs = append(refMs, ms(rr.wall)/f)
		for _, v := range rr.opMs {
			pooled = append(pooled, v/f)
		}
	}
	res.RefMs = append(res.RefMs, ms(slices[len(slices)-1]))

	measuredOps := res.Rounds * res.OpsPerRnd
	res.Samples = len(pooled)
	res.RoundIQR = iqrPct(refMs)
	// p95 is the highest percentile with ten samples beyond it once a run
	// pools a couple of hundred ops; it is reported beside the metrics, not
	// among them (see README: tail latency).
	res.OpP95Ms = quantile(pooled, 0.95)

	// Host-time metrics are medians over the rounds, each round at reference
	// speed (README.md, "Why one processor and reference speed").
	m := res.Metrics
	m["setup_s"] = median(setupRef)
	m["ops_per_s"] = median(opsRate)
	m["guest_minstr_per_s"] = median(instrRate)
	m["op_p50_ms"] = median(p50s)
	m["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(measuredOps)
	m["log_bytes_per_minstr"] = float64(logBytes) / (float64(logInstrs) / 1e6)
	m["stored_bytes_per_logical_byte"] = float64(fin.storedBytes) / float64(fin.logicalBytes)

	res.Wall["setup_s"] = median(res.SetupS)
	res.Wall["ops_per_s"] = median(opsWall)
	res.Wall["guest_minstr_per_s"] = median(instrWall)
	res.Wall["op_p50_ms"] = median(p50Wall)
	return res, nil
}

// tracedResult is one workload's traced measurement.
type tracedResult struct {
	Workload   string             `json:"workload"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	UntracedMs []float64          `json:"untraced_round_ms"`
	TracedMs   []float64          `json:"traced_round_ms"`
	LaneMs     float64            `json:"traced_lane_ms"`
	SelfMs     map[string]float64 `json:"layer_self_ms"`
	Metrics    map[string]float64 `json:"metrics"`
	Spans      int                `json:"spans"`
	spans      []span
}

// measureTraced runs the traced protocol: one set-up, one warm-up, then
// pairs of an untraced and a traced round. The spans of the traced rounds
// give the per-layer self times; the difference between the two kinds of
// round is the price of the spans themselves.
func measureTraced(w workload, pairs int) (*tracedResult, error) {
	res := &tracedResult{Workload: w.name(), Metrics: map[string]float64{}, SelfMs: map[string]float64{}}
	if err := w.setup(); err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	defer w.teardown()
	w.round(nil, 0)

	tr := newTracer()
	idx := 1
	account := func(rr roundResult) {
		res.Attempted += len(rr.opMs)
		res.Failed += rr.failed
		res.Failures = append(res.Failures, rr.failures...)
	}
	for p := 0; p < pairs; p++ {
		runtime.GC()
		u := w.round(nil, idx)
		idx++
		account(u)
		res.UntracedMs = append(res.UntracedMs, ms(u.wall))

		runtime.GC()
		t := w.round(tr, idx)
		idx++
		account(t)
		res.TracedMs = append(res.TracedMs, ms(t.wall))
		for _, f := range t.redrive {
			f()
		}
	}
	fin := w.finish()
	res.Failed += len(fin.failures)
	res.Failures = append(res.Failures, fin.failures...)

	res.spans = tr.spans
	res.Spans = len(tr.spans)
	self, lanes := foldSelf(tr.spans)
	res.LaneMs = ms(lanes)
	for _, l := range layers {
		res.SelfMs[l] = ms(self[l])
		pct := 0.0
		if lanes > 0 {
			pct = 100 * float64(self[l]) / float64(lanes)
		}
		res.Metrics[l+".self_pct"] = pct
	}
	mu, mt := mean(res.UntracedMs), mean(res.TracedMs)
	res.Metrics["bench.trace_overhead_pct"] = 100 * (mt - mu) / mu
	// Four rounds are few; pool both kinds, which differ by less than the
	// box's own noise.
	res.Metrics["bench.round_iqr_pct"] = iqrPct(append(append([]float64(nil), res.UntracedMs...), res.TracedMs...))
	return res, nil
}
