package main

import (
	"fmt"
	"io"
)

// runSelfcheck is the benchmark measuring itself: two full untraced sets,
// back to back, on the same code and seed. Per workload and end-to-end
// metric it prints both values, how much worse the second is than the first
// in the metric's own direction, and a verdict against the metric's bound.
// Simulated and byte-count metrics must repeat exactly; host-time metrics
// must agree within their bound or are reported as unresolved — a
// difference the benchmark cannot tell from its own noise.
func runSelfcheck(out io.Writer, names []string, env environment) int {
	var sets [2][]*runResult
	failed := false
	for s := range sets {
		for _, n := range names {
			res, err := measureNamed(n, env)
			if err != nil {
				fmt.Fprintf(out, "selfcheck: %v\n", err)
				return 1
			}
			failed = failed || res.Failed > 0
			sets[s] = append(sets[s], res)
		}
	}
	fmt.Fprintf(out, "# selfcheck: two sets of %d workloads, seed %d, %d s windows, nproc %d, GOMAXPROCS %d, %s\n",
		len(names), env.Seed, env.Seconds, env.NumCPU, env.GOMAXPROCS, env.GoVersion)
	fmt.Fprintf(out, "%-15s %-30s %16s %16s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound", "verdict")
	unresolved := 0
	for i := range names {
		a, b := sets[0][i], sets[1][i]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
			worse := (vb - va) / va
			if d.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case exactMetrics[d.Name] && va != vb:
				verdict = "NOT EXACT"
				unresolved++
			case exactMetrics[d.Name]:
				verdict = "ok (identical)"
			case worse > d.Bound || worse < -d.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(out, "%-15s %-30s %16.6f %16.6f %8.2f%% %6.0f%%  %s\n", names[i], d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		fmt.Fprintf(out, "%-15s %-30s %16d %16d\n", names[i], "failed ops", a.Failed, b.Failed)
		fmt.Fprintf(out, "%-15s %-30s %16.2f %16.2f\n", names[i], "round_iqr_pct (noise)", a.RoundIQR, b.RoundIQR)
	}
	fmt.Fprintf(out, "# %d workload x metric pairs unresolved; failed ops in either set: %v\n", unresolved, failed)
	if failed {
		return 1
	}
	return 0
}

// exactMetrics are pure functions of (seed, seconds): simulated quantities
// and byte counts. Two runs of the same code must print them identically.
var exactMetrics = map[string]bool{
	"log_bytes_per_minstr":          true,
	"stored_bytes_per_logical_byte": true,
}
