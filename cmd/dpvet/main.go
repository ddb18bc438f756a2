// Command dpvet statically checks guest programs — the builtin workloads
// by default — without executing a single instruction: CFG and dataflow
// verification (branch targets, lock balance, dead stores, dead code)
// plus the lockset race screen.
//
// The certify subcommand prints each workload's race-freedom certificate
// (race-free / possibly-racy / incomplete) — the decision input the
// recorder consults under -verify-policy certified — and cross-validates
// it against the workloads' Racy ground truth: a workload marked racy
// must never be proven race-free.
//
// Exit status: 0 when every analyzed program is consistent, 1 when any
// error-severity finding is reported or a workload's Racy metadata
// disagrees with the screen (a racy workload with no candidates, a
// race-free one with any, or a known racy cell no candidate covers) or,
// under certify, a racy workload is certified race-free, 2 on usage
// errors.
//
//	dpvet                  # analyze every builtin workload
//	dpvet racey kvdb       # analyze specific workloads
//	dpvet -disasm racey    # full annotated listing
//	dpvet -json            # findings as JSON
//	dpvet certify          # race-freedom certificates for every workload
//	dpvet -json certify    # certificates as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"doubleplay/internal/analyze"
	"doubleplay/internal/asm"
	"doubleplay/internal/workloads"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workers = flag.Int("workers", 2, fmt.Sprintf("worker threads per workload build, at most %d", workloads.MaxWorkers))
		scale   = flag.Int("scale", 1, fmt.Sprintf("problem size multiplier, at most %d", workloads.MaxScale))
		seed    = flag.Int64("seed", 1, "input generation seed")
		verbose = flag.Bool("v", false, "also print info-severity findings")
		quiet   = flag.Bool("q", false, "print only per-program summaries")
		listing = flag.Bool("disasm", false, "print the full annotated listing per program")
		radius  = flag.Int("context", 2, "disassembly context radius around each finding")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON instead of text")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dpvet [flags] [certify] [workload ...]\n\n"+
			"Statically analyzes builtin guest workloads (all of them when none are\n"+
			"named): structural verification, dataflow lints, and the lockset race\n"+
			"screen. The certify subcommand prints race-freedom certificates instead.\n"+
			"Exits non-zero on error findings or Racy-metadata mismatches.\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nworkloads: %v\n", workloads.Names())
	}
	flag.Parse()

	names := flag.Args()
	certify := false
	if len(names) > 0 && names[0] == "certify" {
		certify = true
		// Accept flags on either side of the subcommand: `dpvet -json
		// certify` and `dpvet certify -json` both work. ExitOnError makes
		// a failed re-parse exit 2 directly.
		_ = flag.CommandLine.Parse(names[1:])
		names = flag.Args()
	}
	if len(names) == 0 {
		names = workloads.Names()
	}
	params := workloads.Params{Workers: *workers, Scale: *scale, Seed: *seed}
	if err := params.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "dpvet: %v\n", err)
		return 2
	}
	wls := make([]*workloads.Workload, len(names))
	for i, name := range names {
		if wls[i] = workloads.Get(name); wls[i] == nil {
			fmt.Fprintf(os.Stderr, "dpvet: unknown workload %q (have %v)\n", name, workloads.Names())
			return 2
		}
	}
	if certify {
		return runCertify(wls, params, *jsonOut)
	}

	fail := false
	var jsonReports []map[string]any
	for _, w := range wls {
		bt := w.Build(params)
		fs := analyze.Run(bt.Prog)
		races := fs.Races()
		if *jsonOut {
			jsonReports = append(jsonReports, map[string]any{
				"program":     w.Name,
				"summary":     fs.Summary(),
				"errors":      fs.Errors(),
				"candidates":  len(races),
				"findings":    fs.List,
				"certificate": fs.Cert,
			})
		} else {
			fmt.Printf("== %-14s %s\n", w.Name, fs.Summary())
			if !*quiet {
				for _, f := range fs.List {
					if f.Sev == analyze.SevInfo && !*verbose {
						continue
					}
					fmt.Printf("   %s\n", f)
					if *radius > 0 && f.PC >= 0 && f.PC < len(bt.Prog.Code) {
						fmt.Print(asm.Context(bt.Prog, f.PC, *radius))
					}
				}
			}
			if *listing {
				notes := make(map[int][]string)
				for _, f := range fs.List {
					notes[f.PC] = append(notes[f.PC], f.String())
				}
				fmt.Print(asm.Listing(bt.Prog, notes))
			}
		}
		if fs.Errors() > 0 {
			fail = true
		}
		if *workers < 2 {
			// A single worker cannot race with itself; the Racy metadata
			// describes multi-worker builds, so the cross-check would only
			// mislead here.
			if w.Racy && !*jsonOut {
				fmt.Printf("   note: racy-metadata cross-check skipped with -workers %d\n", *workers)
			}
			continue
		}
		switch {
		case w.Racy && len(races) == 0:
			crossFail(*jsonOut, "%s is marked racy but the screen found no candidates\n", w.Name)
			fail = true
		case !w.Racy && len(races) > 0:
			crossFail(*jsonOut, "%s is race-free but the screen flagged %d candidate(s)\n", w.Name, len(races))
			fail = true
		}
		for _, addr := range bt.RacyAddrs {
			if !fs.Covers(addr) {
				crossFail(*jsonOut, "known racy cell %d is not covered by any candidate\n", addr)
				fail = true
			}
		}
	}
	if *jsonOut {
		emitJSON(jsonReports)
	}
	if fail {
		return 1
	}
	return 0
}

// runCertify prints (or emits as JSON) each workload's race-freedom
// certificate and enforces the soundness cross-check against the Racy
// ground truth.
func runCertify(wls []*workloads.Workload, params workloads.Params, jsonOut bool) int {
	fail := false
	var certs []*analyze.Certificate
	for _, w := range wls {
		cert := analyze.Run(w.Program(params)).Cert
		if jsonOut {
			certs = append(certs, cert)
		} else {
			fmt.Printf("== %-14s %s\n", w.Name, cert)
			for _, r := range cert.Reasons {
				fmt.Printf("   - %s\n", r)
			}
		}
		// Soundness gate: a workload with known races must never be proven
		// race-free. (The converse is fine — the certificate is allowed to
		// be conservative about race-free programs.)
		if w.Racy && params.Workers >= 2 && cert.RaceFree() {
			crossFail(jsonOut, "%s is marked racy but was certified race-free — soundness bug\n", w.Name)
			fail = true
		}
	}
	if jsonOut {
		emitJSON(certs)
	}
	if fail {
		return 1
	}
	return 0
}

func crossFail(jsonOut bool, format string, args ...any) {
	if jsonOut {
		fmt.Fprintf(os.Stderr, "dpvet: FAIL: "+format, args...)
	} else {
		fmt.Printf("   FAIL: "+format, args...)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
