// Command dpbench regenerates the paper's tables and figures from the
// simulator: it prints the tables of the experiments exp.Experiments lists
// and nothing else. EXPERIMENTS.md records a reference run. Traces,
// metrics and profiles of a recording are `doubleplay record`'s business.
//
// Usage:
//
//	dpbench -exp all
//	dpbench -exp overhead2          # F1: overhead with spare cores, 2 threads
//	dpbench -exp overhead4 -seed 7  # F2 with a different seed
//	dpbench -list                   # show available experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"doubleplay/internal/exp"
	"doubleplay/internal/workloads"
)

func main() {
	var (
		expName = flag.String("exp", "all", "experiment to run (see -list)")
		list    = flag.Bool("list", false, "list experiments and exit")
		seed    = flag.Int64("seed", 11, "input/timing seed")
		scale   = flag.Int("scale", 1, "problem size multiplier")
		seeds   = flag.Int("seeds", 12, "seed count for the divergence experiment")
	)
	flag.Parse()
	if err := (workloads.Params{Scale: *scale}).Check(); err != nil {
		fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range exp.Experiments {
			fmt.Printf("%-14s %s: %s\n", e.Name, e.ID, e.Desc)
		}
		return
	}

	cfg := exp.Config{Seed: *seed, Scale: *scale, Seeds: *seeds}
	ran := false
	for _, e := range exp.Experiments {
		if *expName != "all" && *expName != e.Name {
			continue
		}
		ran = true
		rep, err := e.Run(cfg)
		for _, t := range rep.Tables {
			t.Write(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "dpbench: unknown experiment %q (try -list)\n", *expName)
		os.Exit(2)
	}
}
