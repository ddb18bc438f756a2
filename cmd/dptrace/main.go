// Command dptrace analyzes Chrome trace_event JSON timelines written by the
// recorder (dpbench -trace, doubleplay record -trace) and lints Prometheus
// text-format metric dumps (dpbench -prom).
//
// Usage:
//
//	dptrace stats trace.json           # per-track span/cycle summary
//	dptrace diff a.json b.json         # align two runs by epoch, report deltas
//	dptrace lag trace.json             # pipeline fill/drain + commit-lag slope
//	dptrace promlint metrics.prom      # check Prometheus text format
//	dptrace flame profile.pb           # top-function table of a guest profile
//	dptrace flame -folded profile.pb   # folded stacks for flamegraph renderers
//
// Exit codes:
//
//	0  ok (diff: the timelines agree)
//	1  unreadable or malformed input, a promlint problem, or a lag input
//	   without a recording
//	2  usage error
//	3  diff: the timelines diverge
//
// diff prints the first divergent epoch and per-epoch cycle deltas either
// way.
// lag replaces the by-eye Perfetto read-off of docs/OBSERVABILITY.md's F6
// worked example: per pipeline track it reports verify occupancy and the
// least-squares slope of commit lag over epoch index, plus the drain tail
// after the last thread-parallel boundary.
// flame reads the pprof-format guest profiles written by -guest-profile
// (doubleplay record/replay/verify, dpbench) and renders either a
// top-function table (-top N rows, default 20) or folded stacks in the
// flamegraph.pl input format.
package main

import (
	"fmt"
	"os"
	"strconv"

	"doubleplay/internal/dptrace"
	"doubleplay/internal/profile"
	"doubleplay/internal/trace"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  dptrace stats <trace.json>
  dptrace diff <a.json> <b.json>
  dptrace lag <trace.json>
  dptrace promlint <metrics.prom>
  dptrace flame [-folded] [-top N] <profile.pb>
`)
	os.Exit(2)
}

func parseTrace(path string) []trace.Event {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dptrace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	evs, err := trace.ParseJSON(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dptrace: %s: %v\n", path, err)
		os.Exit(1)
	}
	return evs
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "stats":
		if len(os.Args) != 3 {
			usage()
		}
		dptrace.Stats(parseTrace(os.Args[2])).Render(os.Stdout)
	case "diff":
		if len(os.Args) != 4 {
			usage()
		}
		rep := dptrace.Diff(os.Args[2], parseTrace(os.Args[2]), os.Args[3], parseTrace(os.Args[3]))
		rep.Render(os.Stdout)
		if rep.FirstDivergent >= 0 {
			os.Exit(3)
		}
	case "lag":
		if len(os.Args) != 3 {
			usage()
		}
		reps := dptrace.Lag(parseTrace(os.Args[2]))
		if len(reps) == 0 {
			fmt.Fprintln(os.Stderr, "dptrace: no recording process with epoch.commit events in trace")
			os.Exit(1)
		}
		for i, rep := range reps {
			if i > 0 {
				fmt.Println()
			}
			rep.Render(os.Stdout)
		}
	case "flame":
		flame(os.Args[2:])
	case "promlint":
		if len(os.Args) != 3 {
			usage()
		}
		data, err := os.ReadFile(os.Args[2])
		if err != nil {
			fmt.Fprintf(os.Stderr, "dptrace: %v\n", err)
			os.Exit(1)
		}
		problems := dptrace.Promlint(string(data))
		for _, p := range problems {
			fmt.Println(p)
		}
		if len(problems) > 0 {
			fmt.Printf("%d problem(s)\n", len(problems))
			os.Exit(1)
		}
		fmt.Println("ok")
	default:
		usage()
	}
}

// flame renders a guest pprof profile: the default is a top-function
// table, -folded switches to flamegraph.pl's folded-stack input format.
func flame(args []string) {
	folded := false
	top := 20
	var path string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-folded":
			folded = true
		case "-top":
			i++
			if i >= len(args) {
				usage()
			}
			n, err := strconv.Atoi(args[i])
			if err != nil || n <= 0 {
				usage()
			}
			top = n
		default:
			if path != "" {
				usage()
			}
			path = args[i]
		}
	}
	if path == "" {
		usage()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dptrace: %v\n", err)
		os.Exit(1)
	}
	prof, err := profile.ParsePprof(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dptrace: %s: %v\n", path, err)
		os.Exit(1)
	}
	if folded {
		if err := prof.WriteFolded(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dptrace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := prof.RenderTop(os.Stdout, top); err != nil {
		fmt.Fprintf(os.Stderr, "dptrace: %v\n", err)
		os.Exit(1)
	}
}
