// Package dptrace analyzes traces written by the trace package (buffered or
// streamed): per-track summaries, epoch-aligned diffing of two runs, and a
// minimal linter for the Prometheus text exposition format. It backs the
// dptrace command.
package dptrace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"doubleplay/internal/trace"
)

// TrackStats summarizes one (pid, tid) track.
type TrackStats struct {
	Pid, Tid    int64
	Process     string // from process_name metadata, if present
	Thread      string // from thread_name metadata, if present
	Spans       int
	SpanCycles  int64 // sum of span durations
	Instants    int
	CounterSamp int
	FirstTs     int64
	LastTs      int64 // max of Ts (+Dur for spans)
}

// key identifies a track.
type key struct{ pid, tid int64 }

// Report is the output of Stats: per-track summaries plus whole-trace
// name frequencies.
type Report struct {
	Events    int
	Tracks    []*TrackStats  // sorted by (pid, tid)
	NameCount map[string]int // events per name, metadata excluded
}

// Stats summarizes a parsed trace.
func Stats(events []trace.Event) *Report {
	rep := &Report{Events: len(events), NameCount: make(map[string]int)}
	tracks := make(map[key]*TrackStats)
	procName := make(map[int64]string)
	threadName := make(map[key]string)
	get := func(k key) *TrackStats {
		ts, ok := tracks[k]
		if !ok {
			ts = &TrackStats{Pid: k.pid, Tid: k.tid, FirstTs: -1}
			tracks[k] = ts
		}
		return ts
	}
	for _, ev := range events {
		if ev.Ph == trace.PhaseMeta {
			if name, ok := ev.Str("name"); ok {
				switch ev.Name {
				case "process_name":
					procName[ev.Pid] = name
				case "thread_name":
					threadName[key{ev.Pid, ev.Tid}] = name
				}
			}
			continue
		}
		rep.NameCount[ev.Name]++
		ts := get(key{ev.Pid, ev.Tid})
		end := ev.Ts
		switch ev.Ph {
		case trace.PhaseComplete:
			ts.Spans++
			ts.SpanCycles += ev.Dur
			end += ev.Dur
		case trace.PhaseInstant:
			ts.Instants++
		case trace.PhaseCounter:
			ts.CounterSamp++
		}
		if ts.FirstTs < 0 || ev.Ts < ts.FirstTs {
			ts.FirstTs = ev.Ts
		}
		if end > ts.LastTs {
			ts.LastTs = end
		}
	}
	for k, ts := range tracks {
		ts.Process = procName[k.pid]
		ts.Thread = threadName[k]
		rep.Tracks = append(rep.Tracks, ts)
	}
	sort.Slice(rep.Tracks, func(i, j int) bool {
		a, b := rep.Tracks[i], rep.Tracks[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		return a.Tid < b.Tid
	})
	return rep
}

// Render writes the report as aligned text.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "events: %d  tracks: %d\n\n", r.Events, len(r.Tracks))
	fmt.Fprintf(w, "%-6s %-6s %-28s %-24s %8s %14s %8s %8s %14s\n",
		"pid", "tid", "process", "thread", "spans", "span-cycles", "inst", "counter", "span")
	for _, ts := range r.Tracks {
		span := fmt.Sprintf("%d..%d", ts.FirstTs, ts.LastTs)
		fmt.Fprintf(w, "%-6d %-6d %-28s %-24s %8d %14d %8d %8d %14s\n",
			ts.Pid, ts.Tid, clip(ts.Process, 28), clip(ts.Thread, 24),
			ts.Spans, ts.SpanCycles, ts.Instants, ts.CounterSamp, span)
	}
	fmt.Fprintf(w, "\n%-24s %8s\n", "event name", "count")
	names := make([]string, 0, len(r.NameCount))
	for n := range r.NameCount {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-24s %8d\n", n, r.NameCount[n])
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// epochInfo is one recording epoch extracted from a trace: the "epoch" span
// plus any divergence instants that name the same epoch index.
type epochInfo struct {
	Index       int64
	Start       int64
	Cycles      int64 // span duration
	Syscalls    int64
	SyncOps     int64
	Divergences int
}

// epochs extracts the recording's epoch timeline from a parsed trace, sorted
// by epoch index. Traces holding several recordings interleave their epochs;
// pass a single-run trace for a meaningful diff.
func epochs(events []trace.Event) []epochInfo {
	byIdx := make(map[int64]*epochInfo)
	for _, ev := range events {
		idx, ok := ev.Int("epoch")
		if !ok {
			continue
		}
		switch {
		case ev.Name == "epoch" && ev.Ph == trace.PhaseComplete:
			e, ok := byIdx[idx]
			if !ok {
				e = &epochInfo{Index: idx}
				byIdx[idx] = e
			}
			e.Start = ev.Ts
			e.Cycles = ev.Dur
			if n, ok := ev.Int("syscalls"); ok {
				e.Syscalls = n
			}
			if n, ok := ev.Int("syncops"); ok {
				e.SyncOps = n
			}
		case ev.Name == "divergence" && ev.Ph == trace.PhaseInstant:
			e, ok := byIdx[idx]
			if !ok {
				e = &epochInfo{Index: idx, Cycles: -1}
				byIdx[idx] = e
			}
			e.Divergences++
		}
	}
	out := make([]epochInfo, 0, len(byIdx))
	for _, e := range byIdx {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// EpochDelta compares one epoch index across two traces. Missing epochs
// (present in only one trace) have InA/InB false.
type EpochDelta struct {
	Index      int64
	InA, InB   bool
	CyclesA    int64
	CyclesB    int64
	Delta      int64 // CyclesB - CyclesA, when both present
	DivergeA   int
	DivergeB   int
	SyscallsA  int64
	SyscallsB  int64
	Divergent  bool // cycle counts differ or epoch missing on one side
	DivergeHit bool // either side recorded a divergence event here
}

// DiffReport aligns two traces epoch by epoch.
type DiffReport struct {
	A, B           string // labels (file names)
	Epochs         []EpochDelta
	FirstDivergent int64 // epoch index, or -1 when the timelines agree
	TotalA, TotalB int64 // summed epoch cycles
}

// Diff aligns two parsed traces by epoch index and reports per-epoch cycle
// deltas and the first index at which the runs disagree (different epoch
// duration, or an epoch present on only one side). Identical runs yield
// FirstDivergent == -1.
func Diff(labelA string, a []trace.Event, labelB string, b []trace.Event) *DiffReport {
	ea, eb := epochs(a), epochs(b)
	byA := make(map[int64]epochInfo, len(ea))
	for _, e := range ea {
		byA[e.Index] = e
	}
	byB := make(map[int64]epochInfo, len(eb))
	for _, e := range eb {
		byB[e.Index] = e
	}
	idxSet := make(map[int64]struct{})
	for i := range byA {
		idxSet[i] = struct{}{}
	}
	for i := range byB {
		idxSet[i] = struct{}{}
	}
	idxs := make([]int64, 0, len(idxSet))
	for i := range idxSet {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	rep := &DiffReport{A: labelA, B: labelB, FirstDivergent: -1}
	for _, i := range idxs {
		va, inA := byA[i]
		vb, inB := byB[i]
		d := EpochDelta{Index: i, InA: inA, InB: inB}
		if inA {
			d.CyclesA = va.Cycles
			d.DivergeA = va.Divergences
			d.SyscallsA = va.Syscalls
			rep.TotalA += va.Cycles
		}
		if inB {
			d.CyclesB = vb.Cycles
			d.DivergeB = vb.Divergences
			d.SyscallsB = vb.Syscalls
			rep.TotalB += vb.Cycles
		}
		if inA && inB {
			d.Delta = d.CyclesB - d.CyclesA
			d.Divergent = d.CyclesA != d.CyclesB
		} else {
			d.Divergent = true
		}
		d.DivergeHit = d.DivergeA > 0 || d.DivergeB > 0
		if d.Divergent && rep.FirstDivergent < 0 {
			rep.FirstDivergent = i
		}
		rep.Epochs = append(rep.Epochs, d)
	}
	return rep
}

// Render writes the diff as aligned text, flagging the first divergence.
func (r *DiffReport) Render(w io.Writer) {
	fmt.Fprintf(w, "A: %s\nB: %s\n\n", r.A, r.B)
	fmt.Fprintf(w, "%-6s %14s %14s %12s %6s %6s\n", "epoch", "cycles A", "cycles B", "delta", "divA", "divB")
	for _, d := range r.Epochs {
		ca, cb, delta := "-", "-", "-"
		if d.InA {
			ca = fmt.Sprintf("%d", d.CyclesA)
		}
		if d.InB {
			cb = fmt.Sprintf("%d", d.CyclesB)
		}
		if d.InA && d.InB {
			delta = fmt.Sprintf("%+d", d.Delta)
		}
		mark := ""
		if d.Index == r.FirstDivergent {
			mark = "  <- first divergent epoch"
		} else if d.Divergent {
			mark = "  *"
		}
		fmt.Fprintf(w, "%-6d %14s %14s %12s %6d %6d%s\n", d.Index, ca, cb, delta, d.DivergeA, d.DivergeB, mark)
	}
	fmt.Fprintf(w, "\ntotal epoch cycles: A=%d B=%d (delta %+d)\n", r.TotalA, r.TotalB, r.TotalB-r.TotalA)
	if r.FirstDivergent < 0 {
		fmt.Fprintf(w, "timelines agree: no divergent epoch\n")
	} else {
		fmt.Fprintf(w, "first divergent epoch: %d\n", r.FirstDivergent)
	}
}

// Promlint checks text for gross violations of the Prometheus text
// exposition format (version 0.0.4): malformed lines, sample names that
// disagree with the preceding TYPE declaration, duplicate TYPE lines, and
// histograms missing their _sum/_count series. It returns one message per
// problem; an empty slice means the input passed.
func Promlint(text string) []string {
	var problems []string
	typeOf := make(map[string]string) // metric family -> kind
	samples := make(map[string]bool)  // sample names seen
	var order []string                // family declaration order
	lineNo := 0
	for _, line := range strings.Split(text, "\n") {
		lineNo++
		if line == "" || strings.HasPrefix(line, "# HELP") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				problems = append(problems, fmt.Sprintf("line %d: malformed TYPE line", lineNo))
				continue
			}
			name, kind := fields[2], fields[3]
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				problems = append(problems, fmt.Sprintf("line %d: unknown metric type %q", lineNo, kind))
			}
			if _, dup := typeOf[name]; dup {
				problems = append(problems, fmt.Sprintf("line %d: duplicate TYPE for %s", lineNo, name))
			}
			typeOf[name] = kind
			order = append(order, name)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		// Sample line: name{labels} value  or  name value.
		name := line
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if j := strings.LastIndexByte(line, '}'); j < i {
				problems = append(problems, fmt.Sprintf("line %d: unbalanced braces", lineNo))
				continue
			}
			name = name[:i]
		} else if i := strings.IndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		if name == "" || !validMetricName(name) {
			problems = append(problems, fmt.Sprintf("line %d: invalid metric name %q", lineNo, name))
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			problems = append(problems, fmt.Sprintf("line %d: sample without value", lineNo))
			continue
		}
		samples[name] = true
		if family, ok := familyOf(name, typeOf); ok {
			_ = family
		} else if len(typeOf) > 0 {
			problems = append(problems, fmt.Sprintf("line %d: sample %s has no TYPE declaration", lineNo, name))
		}
	}
	for _, fam := range order {
		if typeOf[fam] != "histogram" {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if !samples[fam+suffix] {
				problems = append(problems, fmt.Sprintf("histogram %s missing %s%s series", fam, fam, suffix))
			}
		}
	}
	return problems
}

// familyOf maps a sample name to its declared family, accepting histogram
// suffixes.
func familyOf(name string, typeOf map[string]string) (string, bool) {
	if _, ok := typeOf[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if kind, ok := typeOf[base]; ok && (kind == "histogram" || kind == "summary") {
				return base, true
			}
		}
	}
	return "", false
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(name) > 0
}

// CommitLag is one epoch's commit lag: how long after its thread-parallel
// boundary the epoch-parallel pipeline committed it (the "lag" argument
// the recorder attaches to every "epoch.commit" instant).
type CommitLag struct {
	Epoch int64
	Ts    int64 // commit time
	Lag   int64 // commit time - boundary time
	Tid   int64 // pipeline track the commit retired on
}

// SlotLag summarizes one pipeline track: its epoch.verify occupancy and
// the lag trend of the commits it retired.
type SlotLag struct {
	Tid      int64
	Thread   string // thread_name metadata, if present
	Verifies int
	Busy     int64 // Σ epoch.verify span cycles
	Span     int64 // first verify start .. last verify end
	Commits  int
	MaxLag   int64
	Slope    float64 // least-squares lag growth, cycles per epoch
}

// Occupancy is the track's busy fraction over its active span.
func (s *SlotLag) Occupancy() float64 {
	if s.Span <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Span)
}

// CtlDecision is one adaptive-controller decision parsed from a ctl.grow
// or ctl.shrink instant: at which epoch boundary the controller acted,
// the commit lag that triggered it, and the active slot count it moved to.
type CtlDecision struct {
	Ts     int64
	Epoch  int64
	Grow   bool
	Active int64 // active slots after the decision
	Lag    int64 // commit lag at the decision boundary
}

// LagReport quantifies the pipeline fill/drain behaviour of one recording
// process — the read-off docs/OBSERVABILITY.md's F6 worked example does
// by eye in Perfetto. A positive overall Slope means the pipeline cannot
// keep up with boundary arrival (fill); Drain is the tail between the
// last thread-parallel boundary and the last commit. When the recording
// ran with the adaptive controller, the ctl.* events it emitted are
// summarized too.
type LagReport struct {
	Pid     int64
	Process string
	Epochs  int   // "epoch" spans seen
	Commits int   // "epoch.commit" instants seen
	LastTP  int64 // end of the last thread-parallel epoch span
	Done    int64 // "record.done" timestamp (or last commit when absent)
	Drain   int64 // Done - LastTP, clamped at 0
	MeanLag float64
	MaxLag  int64
	Slope   float64 // least-squares lag growth across all epochs
	Slots   []SlotLag
	Lags    []CommitLag // per-epoch series, sorted by epoch index

	// Adaptive controller narration, from ctl.* events (zero when the
	// recording ran with fixed spares).
	Adaptive     bool  // a ctl.enable instant was present
	CtlMin       int64 // controller bounds, from ctl.enable
	CtlMax       int64
	Grows        int
	Shrinks      int
	ActiveSpares int64 // last ctl.active counter sample
	Decisions    []CtlDecision
}

// slope fits lag = a + b*epoch by least squares and returns b; fewer than
// two points have no trend.
func slope(pts []CommitLag) float64 {
	n := float64(len(pts))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x, y := float64(p.Epoch), float64(p.Lag)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// Lag extracts the pipeline-lag report for every recording process in a
// trace (a process with at least one "epoch.commit" instant), sorted by
// pid. Traces from dpbench sweeps hold many recordings; single-run traces
// yield one report.
func Lag(events []trace.Event) []*LagReport {
	type slotAcc struct {
		s        SlotLag
		lags     []CommitLag
		haveSpan bool
		first    int64
		last     int64
	}
	type acc struct {
		rep      LagReport
		slots    map[int64]*slotAcc
		activeTs int64 // timestamp of the ctl.active sample in ActiveSpares
	}
	procName := make(map[int64]string)
	threadName := make(map[key]string)
	byPid := make(map[int64]*acc)
	get := func(pid int64) *acc {
		a, ok := byPid[pid]
		if !ok {
			a = &acc{rep: LagReport{Pid: pid}, slots: make(map[int64]*slotAcc)}
			byPid[pid] = a
		}
		return a
	}
	slot := func(a *acc, tid int64) *slotAcc {
		sa, ok := a.slots[tid]
		if !ok {
			sa = &slotAcc{s: SlotLag{Tid: tid}}
			a.slots[tid] = sa
		}
		return sa
	}
	for _, ev := range events {
		switch {
		case ev.Ph == trace.PhaseMeta:
			if name, ok := ev.Str("name"); ok {
				switch ev.Name {
				case "process_name":
					procName[ev.Pid] = name
				case "thread_name":
					threadName[key{ev.Pid, ev.Tid}] = name
				}
			}
		case ev.Name == "epoch" && ev.Ph == trace.PhaseComplete:
			a := get(ev.Pid)
			a.rep.Epochs++
			if end := ev.Ts + ev.Dur; end > a.rep.LastTP {
				a.rep.LastTP = end
			}
		case ev.Name == "epoch.verify" && ev.Ph == trace.PhaseComplete:
			a := get(ev.Pid)
			sa := slot(a, ev.Tid)
			sa.s.Verifies++
			sa.s.Busy += ev.Dur
			if !sa.haveSpan || ev.Ts < sa.first {
				sa.first = ev.Ts
			}
			if end := ev.Ts + ev.Dur; end > sa.last {
				sa.last = end
			}
			sa.haveSpan = true
		case ev.Name == "epoch.commit" && ev.Ph == trace.PhaseInstant:
			idx, okIdx := ev.Int("epoch")
			lag, okLag := ev.Int("lag")
			if !okIdx || !okLag {
				continue
			}
			a := get(ev.Pid)
			cl := CommitLag{Epoch: idx, Ts: ev.Ts, Lag: lag, Tid: ev.Tid}
			a.rep.Lags = append(a.rep.Lags, cl)
			slot(a, ev.Tid).lags = append(slot(a, ev.Tid).lags, cl)
		case ev.Name == "record.done" && ev.Ph == trace.PhaseInstant:
			get(ev.Pid).rep.Done = ev.Ts
		case ev.Name == "ctl.enable" && ev.Ph == trace.PhaseInstant:
			a := get(ev.Pid)
			a.rep.Adaptive = true
			if n, ok := ev.Int("min"); ok {
				a.rep.CtlMin = n
			}
			if n, ok := ev.Int("max"); ok {
				a.rep.CtlMax = n
			}
		case (ev.Name == "ctl.grow" || ev.Name == "ctl.shrink") && ev.Ph == trace.PhaseInstant:
			a := get(ev.Pid)
			a.rep.Adaptive = true
			d := CtlDecision{Ts: ev.Ts, Grow: ev.Name == "ctl.grow"}
			d.Epoch, _ = ev.Int("epoch")
			d.Active, _ = ev.Int("active")
			d.Lag, _ = ev.Int("lag")
			if d.Grow {
				a.rep.Grows++
			} else {
				a.rep.Shrinks++
			}
			a.rep.Decisions = append(a.rep.Decisions, d)
		case ev.Name == "ctl.active" && ev.Ph == trace.PhaseCounter:
			a := get(ev.Pid)
			a.rep.Adaptive = true
			if n, ok := ev.Int("value"); ok && ev.Ts >= a.activeTs {
				a.rep.ActiveSpares = n
				a.activeTs = ev.Ts
			}
		}
	}

	var out []*LagReport
	for pid, a := range byPid {
		rep := a.rep
		rep.Commits = len(rep.Lags)
		if rep.Commits == 0 {
			continue // not a recording process
		}
		rep.Process = procName[pid]
		sort.Slice(rep.Lags, func(i, j int) bool { return rep.Lags[i].Epoch < rep.Lags[j].Epoch })
		sort.Slice(rep.Decisions, func(i, j int) bool { return rep.Decisions[i].Ts < rep.Decisions[j].Ts })
		var sum, lastCommit int64
		for _, l := range rep.Lags {
			sum += l.Lag
			if l.Lag > rep.MaxLag {
				rep.MaxLag = l.Lag
			}
			if l.Ts > lastCommit {
				lastCommit = l.Ts
			}
		}
		if rep.Done == 0 {
			rep.Done = lastCommit
		}
		rep.MeanLag = float64(sum) / float64(rep.Commits)
		rep.Slope = slope(rep.Lags)
		if rep.Drain = rep.Done - rep.LastTP; rep.Drain < 0 {
			rep.Drain = 0
		}
		for tid, sa := range a.slots {
			sa.s.Thread = threadName[key{pid, tid}]
			sa.s.Commits = len(sa.lags)
			sa.s.Span = sa.last - sa.first
			sa.s.Slope = slope(sa.lags)
			for _, l := range sa.lags {
				if l.Lag > sa.s.MaxLag {
					sa.s.MaxLag = l.Lag
				}
			}
			rep.Slots = append(rep.Slots, sa.s)
		}
		sort.Slice(rep.Slots, func(i, j int) bool { return rep.Slots[i].Tid < rep.Slots[j].Tid })
		out = append(out, &rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pid < out[j].Pid })
	return out
}

// Render writes the lag report as aligned text with a fill/drain verdict.
func (r *LagReport) Render(w io.Writer) {
	fmt.Fprintf(w, "process %d  %s\n", r.Pid, r.Process)
	fmt.Fprintf(w, "epochs: %d  commits: %d  mean lag: %.0f  max lag: %d\n",
		r.Epochs, r.Commits, r.MeanLag, r.MaxLag)
	fmt.Fprintf(w, "lag slope: %+.1f cycles/epoch  last boundary: %d  done: %d  drain: %d cycles\n",
		r.Slope, r.LastTP, r.Done, r.Drain)
	switch {
	case r.Slope > 1:
		fmt.Fprintf(w, "verdict: pipeline FILLS — verification retires slower than boundaries arrive\n")
	case r.Drain > 0 && r.Epochs > 0 && float64(r.Drain) > r.MeanLag:
		fmt.Fprintf(w, "verdict: pipeline drains a tail after the guest finishes\n")
	default:
		fmt.Fprintf(w, "verdict: pipeline keeps up — lag is flat\n")
	}
	if r.Adaptive {
		fmt.Fprintf(w, "controller: bounds [%d..%d]  grows: %d  shrinks: %d  final active: %d\n",
			r.CtlMin, r.CtlMax, r.Grows, r.Shrinks, r.ActiveSpares)
		for _, d := range r.Decisions {
			verb := "grow"
			if !d.Grow {
				verb = "shrink"
			}
			fmt.Fprintf(w, "  epoch %-4d %-6s -> %d active (lag %d at cycle %d)\n",
				d.Epoch, verb, d.Active, d.Lag, d.Ts)
		}
	}
	if len(r.Slots) > 0 {
		fmt.Fprintf(w, "\n%-6s %-26s %8s %12s %10s %8s %12s %12s\n",
			"tid", "track", "verifies", "busy-cycles", "occupancy", "commits", "max-lag", "slope")
		for _, s := range r.Slots {
			fmt.Fprintf(w, "%-6d %-26s %8d %12d %9.0f%% %8d %12d %+12.1f\n",
				s.Tid, clip(s.Thread, 26), s.Verifies, s.Busy, 100*s.Occupancy(), s.Commits, s.MaxLag, s.Slope)
		}
	}
	fmt.Fprintf(w, "\n%-6s %14s %14s\n", "epoch", "commit-ts", "lag")
	for _, l := range r.Lags {
		fmt.Fprintf(w, "%-6d %14d %14d\n", l.Epoch, l.Ts, l.Lag)
	}
}
