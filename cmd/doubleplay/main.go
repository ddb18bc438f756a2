// Command doubleplay records, replays, verifies, and inspects executions of
// the builtin benchmark suite.
//
// Usage:
//
//	doubleplay list
//	doubleplay record  -w pbzip -workers 4 -spares 4 -o pbzip.dplog
//	doubleplay record  -w pbzip -trace t.json -listen :9090  # streamed trace + live /metrics
//	doubleplay record  -w pbzip -adaptive -min-spares 1 -max-spares 4  # feedback-controlled spares
//	doubleplay record  -w pbzip -guest-profile p.pb  # deterministic guest cycle profile
//	doubleplay replay  -log pbzip.dplog             # workload, workers, seed from the log
//	doubleplay replay  -log pbzip.dplog -stride 4   # the plan: [-parallel | -stride N]
//	doubleplay verify  -w pbzip -workers 4          # record + both replays in memory
//	doubleplay verify  -w pbzip -guest-profile p.pb # + replay-vs-record profile identity
//	doubleplay serve   -listen :8421 -pprof         # job daemon + /debug/pprof
//	doubleplay log inspect -log pbzip.dplog         # section table + index health
//	doubleplay log upgrade -log bad.dplog           # rewrite a damaged log's index in place
//	doubleplay log extract -log pbzip.dplog -epochs 3..5 -o sub.dplog
//	doubleplay disasm  -w fft
//	doubleplay races   -w webserve-racy -workers 4  # happens-before race report
//	doubleplay serve   -listen :8421 -data ./dpdata # record/replay job daemon
//
// Exit codes are uniform across subcommands: 0 success, 1 runtime failure
// (divergence, I/O error, failed self-check), 2 invocation error (unknown
// command, bad flags, a flag the command does not read, missing arguments
// — always with usage on stderr).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"doubleplay/internal/asm"
	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/race"
	"doubleplay/internal/replay"
	"doubleplay/internal/server"
	"doubleplay/internal/trace"
	"doubleplay/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usageErr("missing command")
	}
	cmd, args := os.Args[1], os.Args[2:]
	// The `log` group nests one level: fold "log inspect" into a single
	// command name before flag parsing.
	if cmd == "log" {
		if len(args) == 0 {
			usageErr("log requires a subcommand: inspect, upgrade, extract")
		}
		cmd, args = "log "+args[0], args[1:]
	}
	// The `store` group nests the same way.
	if cmd == "store" {
		if len(args) == 0 {
			usageErr("store requires a subcommand: stats, gc, fsck")
		}
		cmd, args = "store "+args[0], args[1:]
	}

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		wlName     = fs.String("w", "", "workload name (see 'doubleplay list')")
		workers    = fs.Int("workers", 2, fmt.Sprintf("guest worker threads, at most %d", workloads.MaxWorkers))
		spares     = fs.Int("spares", 0, "spare cores for the epoch pipeline (default: workers)")
		scale      = fs.Int("scale", 1, fmt.Sprintf("problem size multiplier, at most %d", workloads.MaxScale))
		seed       = fs.Int64("seed", 11, "input/timing seed")
		epochLen   = fs.Int64("epoch", core.DefaultEpochCycles, "epoch length in cycles")
		logPath    = fs.String("log", "", "recording file to read")
		outPath    = fs.String("o", "", "recording file to write")
		epochRange = fs.String("epochs", "", "log extract: epoch range, n or n..m")
		parallel   = fs.Bool("parallel", false, "replay every epoch in parallel (replay: the plan; verify: one more replay)")
		stride     = fs.Int("stride", 0, "sparse replay from every N-th checkpoint, N >= 2 (replay: the plan; verify: one more replay)")
		detect     = fs.Bool("detect-races", false, "run the happens-before detector during recording")
		verifyPol  = fs.String("verify-policy", "always", "epoch verification policy: always, or certified (skip the epoch-parallel pass when the static certificate proves the guest race-free)")
		growth     = fs.Float64("growth", 1, "adaptive epoch growth factor (>1 enables)")
		adaptive   = fs.Bool("adaptive", false, "grow/shrink active spare slots at run time from the commit-lag signal")
		minSpares  = fs.Int("min-spares", 0, "adaptive: lower bound on active spare slots (default 1)")
		maxSpares  = fs.Int("max-spares", 0, "adaptive: upper bound on active spare slots (default -spares)")
		traceOut   = fs.String("trace", "", "stream a Chrome trace_event JSON timeline to this file (record/verify/replay)")
		metrics    = fs.Bool("metrics", false, "print the metrics registry after the run (record/verify)")
		promOut    = fs.String("prom", "", "write the metrics registry in Prometheus text format to this file (record/verify)")
		listen     = fs.String("listen", "", "serve /metrics and /healthz on this address while the run executes (serve: the API address)")
		guestProf  = fs.String("guest-profile", "", "write the deterministic guest cycle profile (pprof format) to this file (record/replay/verify; render with 'dptrace flame')")
		cpuProf    = fs.String("cpuprofile", "", "write a host CPU profile of this process to this file")
		memProf    = fs.String("memprofile", "", "write a host heap profile of this process to this file on exit")

		// serve-only flags.
		pprofFlag    = fs.Bool("pprof", false, "serve: expose net/http/pprof under /debug/pprof on the API address")
		dataDir      = fs.String("data", "dpdata", "serve: artifact store directory (recordings + per-job artifacts)")
		pool         = fs.Int("pool", 2, "serve: worker pool size (concurrent jobs)")
		queueDepth   = fs.Int("queue", 16, "serve: queued-job limit before submissions get 429")
		jobTimeout   = fs.Duration("job-timeout", 2*time.Minute, "serve: default per-job timeout (0 disables; specs may override)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "serve: how long shutdown waits for running jobs before canceling them")
		addrFile     = fs.String("addr-file", "", "serve: write the bound listen address to this file (for :0 listeners)")

		// store-only flags (-data above selects the store directory).
		jsonOut  = fs.Bool("json", false, "store stats/gc/fsck: print the report as JSON")
		maxAge   = fs.Duration("max-age", 0, "store gc: collect unpinned recordings older than this (0 = no age limit)")
		maxBytes = fs.Int64("max-bytes", 0, "store gc: keep newest unpinned recordings within this logical-byte budget (0 = no budget)")
		dryRun   = fs.Bool("dry-run", false, "store gc: report what would be collected without deleting")
	)
	fs.Parse(args)
	known, ok := reads[cmd]
	if !ok {
		usageErr(fmt.Sprintf("unknown command %q", cmd))
	}
	set := map[string]bool{} // the flags given on the command line
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if !slices.Contains(strings.Fields(known+" cpuprofile memprofile"), f.Name) {
			usageErr(fmt.Sprintf("%s does not read -%s", cmd, f.Name))
		}
	})
	// What record and verify run, described and refused as a daemon job
	// is, and what disasm and races build: refused before any file is made.
	params := workloads.Params{Workers: *workers, Scale: *scale, Seed: *seed}
	var sp server.Spec
	var err error
	switch cmd {
	case "record", "verify":
		sp = server.Spec{
			Kind: server.KindRecord, Workload: mustWorkload(*wlName).Name,
			Workers: *workers, Spares: *spares, Scale: *scale, Seed: *seed,
			EpochCycles: *epochLen, Growth: *growth, DetectRaces: *detect, VerifyPolicy: *verifyPol,
			Adaptive: *adaptive, MinSpares: *minSpares, MaxSpares: *maxSpares,
		}
		err = sp.Validate(nil)
	case "disasm", "races":
		err = params.Check()
	}
	if err != nil {
		usageErr(err.Error())
	}
	// Host profiling brackets the whole command; the deferred Stop flushes
	// both files, and a failed flush exits through the uniform runtime
	// exit code (1).
	hostProf, err := profile.StartHostProfiles(*cpuProf, *memProf)
	check(err)
	defer func() { check(hostProf.Stop()) }()
	// The trace streams to disk as the run executes, each event written as
	// it is emitted; Close finishes the JSON document.
	var sink *trace.Sink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		check(err)
		sink = trace.NewStreamSink(f, 0)
		defer f.Close()
	}
	var reg *trace.Registry
	if *metrics || *promOut != "" || *listen != "" {
		reg = trace.NewRegistry()
	}
	if *listen != "" && cmd != "serve" {
		srv, err := trace.ServeMetrics(*listen, reg)
		check(err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "doubleplay: serving /metrics and /healthz on %s\n", srv.Addr)
	}
	// Written at the end of record/verify/replay when -trace was given.
	flushTrace := func() {
		if sink == nil {
			return
		}
		check(sink.Close())
		fmt.Printf("trace: %d events streamed -> %s (open with https://ui.perfetto.dev)\n",
			sink.Len(), *traceOut)
	}
	// Written at the end of record/replay/verify when -guest-profile was
	// given; nil prof (flag unset) is a no-op.
	writeGuestProfile := func(prof *profile.Profile) {
		if prof == nil {
			return
		}
		f, err := os.Create(*guestProf)
		check(err)
		check(prof.WritePprof(f))
		check(f.Close())
		fmt.Printf("guest profile: %d stacks, %d cycles -> %s (render with 'dptrace flame')\n",
			prof.NumSamples(), prof.TotalCycles(), *guestProf)
	}
	flushMetrics := func() {
		if *promOut != "" {
			f, err := os.Create(*promOut)
			check(err)
			check(reg.WritePrometheus(f))
			check(f.Close())
			fmt.Printf("prometheus metrics -> %s\n", *promOut)
		}
		if !*metrics {
			return
		}
		fmt.Println("metrics:")
		reg.Render(os.Stdout)
	}

	switch cmd {
	case "list":
		for _, w := range workloads.All() {
			racy := ""
			if w.Racy {
				racy = " [racy]"
			}
			fmt.Printf("%-14s %-10s%s %s\n", w.Name, w.Kind, racy, w.Desc)
		}

	case "record":
		var gprof *profile.Profile
		if *guestProf != "" {
			gprof = profile.NewProfile("")
		}
		res, _, err := server.Record(context.Background(), sp, nil, sink, reg, gprof)
		check(err)
		printStats(*wlName, res)
		printRaces(res)
		if *outPath != "" {
			f, err := os.Create(*outPath)
			check(err)
			check(dplog.Marshal(f, res.Recording))
			check(f.Close())
			fmt.Printf("wrote %s (%d bytes on disk, %d bytes replay payload)\n",
				*outPath, res.Stats.FileBytes, res.Stats.ReplayBytes)
		}
		writeGuestProfile(gprof)
		flushTrace()
		flushMetrics()

	case "replay":
		if *logPath == "" {
			usageErr("replay requires -log (or use 'verify' for an in-memory round trip)")
		}
		data, err := os.ReadFile(*logPath)
		check(err)
		rd, err := dplog.OpenReaderBytes(data)
		check(err)
		// The log names the workload, workers and seed; a flag the user
		// set must agree with it. -parallel and -stride select the plan
		// as a replay job's mode and stride do.
		sp := server.Spec{Workload: *wlName, Scale: *scale}
		if set["workers"] {
			sp.Workers = *workers
		}
		if set["seed"] {
			sp.Seed = *seed
		}
		switch {
		case *parallel && set["stride"]:
			usageErr("replay takes -parallel or -stride N, not both")
		case *parallel:
			sp.Mode = "parallel"
		case set["stride"]:
			sp.Mode, sp.Stride = server.ModeSparse, *stride
		}
		l, err := server.OpenLog(*logPath, rd, &sp)
		if err != nil {
			usageErr(err.Error())
		}
		var gprof *profile.Profile
		if *guestProf != "" {
			gprof = profile.NewProfile("")
		}
		rep, err := l.Replay(context.Background(), sink, gprof)
		check(err)
		fmt.Printf("replayed %d epochs in %d simulated cycles; final hash %016x verified\n",
			rep.Epochs, rep.Cycles, rep.FinalHash)
		writeGuestProfile(gprof)
		flushTrace()

	case "verify":
		var recProf *profile.Profile
		if *guestProf != "" {
			recProf = profile.NewProfile("")
		}
		var strides []int
		if *parallel {
			strides = append(strides, 1)
		}
		if set["stride"] {
			if *stride < 2 {
				usageErr("sparse replay requires stride >= 2")
			}
			strides = append(strides, *stride)
		}
		res, bt, err := server.Record(context.Background(), sp, strides, sink, reg, recProf)
		check(err)
		printStats(*wlName, res)
		printRaces(res)
		reps, err := server.Verify(context.Background(), bt, res, *workers, strides, sink, recProf)
		for i, rep := range reps {
			switch {
			case i == 0:
				fmt.Printf("sequential replay: OK (%d cycles)\n", rep.Cycles)
			case strides[i-1] == 1:
				fmt.Printf("parallel replay:   OK (%d cycles on %d cores)\n", rep.Cycles, *workers)
			default:
				fmt.Printf("sparse replay:     OK (stride %d, %d of %d checkpoints kept, %d cycles)\n",
					*stride, len(replay.Thin(res.Boundaries, *stride)), len(res.Recording.Epochs)+1, rep.Cycles)
			}
		}
		check(err)
		if recProf != nil {
			fmt.Printf("guest profile:     OK (replay regenerates the record profile bit-identically, %d stacks)\n",
				recProf.NumSamples())
		}
		fmt.Println("guest self-check:  OK")
		writeGuestProfile(recProf)
		flushTrace()
		flushMetrics()

	case "log inspect":
		if *logPath == "" {
			usageErr("log inspect requires -log")
		}
		// -epoch doubles as the section selector here (elsewhere it is the
		// epoch length in cycles); only an explicit flag selects a section.
		sel := -1
		if set["epoch"] {
			sel = int(*epochLen)
		}
		logInspect(*logPath, sel)

	case "log upgrade":
		if *logPath == "" {
			usageErr("log upgrade requires -log")
		}
		logUpgrade(*logPath, *outPath)

	case "log extract":
		if *logPath == "" {
			usageErr("log extract requires -log")
		}
		logExtract(*logPath, *outPath, *epochRange)

	case "disasm":
		fmt.Print(asm.Disassemble(mustWorkload(*wlName).Program(params)))

	case "races":
		bt := mustWorkload(*wlName).Build(params)
		reports, err := race.Find(bt.Prog, bt.World)
		check(err)
		if len(reports) == 0 {
			fmt.Println("no data races detected")
			return
		}
		fmt.Printf("%d racy addresses:\n", len(reports))
		for _, r := range reports {
			fmt.Println("  " + r.String())
		}

	case "serve":
		serve(*listen, *dataDir, *pool, *queueDepth, *jobTimeout, *drainTimeout, *addrFile, *pprofFlag)

	case "store stats":
		storeStats(*dataDir, *jsonOut)

	case "store gc":
		storeGC(*dataDir, *maxAge, *maxBytes, *dryRun, *jsonOut)

	case "store fsck":
		storeFsck(*dataDir, *jsonOut)

	}
}

// recordFlags describe a recording; record and verify read them.
const recordFlags = "w workers spares scale seed epoch growth detect-races verify-policy adaptive min-spares max-spares trace metrics prom listen guest-profile"

// reads names the flags each command reads, besides -cpuprofile and
// -memprofile, which every command reads. A command line that sets any
// other flag is a usage error.
var reads = map[string]string{
	"list":        "",
	"record":      recordFlags + " o",
	"replay":      "log w workers scale seed parallel stride trace guest-profile",
	"verify":      recordFlags + " parallel stride",
	"log inspect": "log epoch",
	"log upgrade": "log o",
	"log extract": "log epochs o",
	"disasm":      "w workers scale seed",
	"races":       "w workers scale seed",
	"serve":       "listen pprof data pool queue job-timeout drain-timeout addr-file",
	"store stats": "data json",
	"store gc":    "data max-age max-bytes dry-run json",
	"store fsck":  "data json",
}

// serve runs the record/replay job daemon until SIGINT/SIGTERM, then
// drains: in-flight jobs finish (or are canceled after drainTimeout),
// artifacts are flushed, and the process exits 0.
func serve(listen, dataDir string, pool, queueDepth int, jobTimeout, drainTimeout time.Duration, addrFile string, enablePprof bool) {
	if listen == "" {
		listen = "127.0.0.1:8421"
	}
	srv, err := server.New(server.Config{
		DataDir:      dataDir,
		Workers:      pool,
		QueueDepth:   queueDepth,
		JobTimeout:   jobTimeout,
		DrainTimeout: drainTimeout,
		EnablePprof:  enablePprof,
	})
	check(err)
	srv.Start()

	ln, err := net.Listen("tcp", listen)
	check(err)
	if addrFile != "" {
		check(os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644))
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "doubleplay: serving jobs on http://%s (data %s, %d workers, queue %d)\n",
		ln.Addr(), dataDir, pool, queueDepth)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "doubleplay: %s received, draining\n", sig)
	case err := <-errc:
		fatal(fmt.Sprintf("serve: %v", err))
	}

	// Drain jobs first (queued jobs cancel, running jobs finish or get
	// canceled after the grace period), then stop the HTTP listener.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout+30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "doubleplay: drain incomplete: %v\n", err)
	}
	check(hs.Shutdown(ctx))
	fmt.Fprintln(os.Stderr, "doubleplay: drained")
}

func mustWorkload(name string) *workloads.Workload {
	if name == "" {
		usageErr("missing -w <workload>; see 'doubleplay list'")
	}
	wl := workloads.Get(name)
	if wl == nil {
		usageErr(fmt.Sprintf("unknown workload %q; see 'doubleplay list'", name))
	}
	return wl
}

func printRaces(res *core.Result) {
	if res.Races == nil {
		return
	}
	fmt.Printf("  races: %d racy addresses detected during recording\n", len(res.Races))
	for i, r := range res.Races {
		if i == 5 {
			fmt.Printf("    ...\n")
			break
		}
		fmt.Printf("    %s\n", r)
	}
}

func printStats(name string, res *core.Result) {
	s := res.Stats
	fmt.Printf("recorded %s: %d epochs, %d instrs, %d syscalls, %d sync ops, %d slices\n",
		name, s.Epochs, s.Retired, s.Syscalls, s.SyncEvents, s.Slices)
	fmt.Printf("  time: thread-parallel %d cyc, completion %d cyc; divergences %d (adopt %d, rerun %d)\n",
		s.ThreadParallelCycles, s.CompletionCycles, s.Divergences, s.HashRecoveries, s.RerunRecoveries)
	fmt.Printf("  log: %d bytes replay, %d bytes with sync order, %d bytes on disk\n",
		s.ReplayBytes, s.FullBytes, s.FileBytes)
	if s.CertStatus != "" {
		if s.VerifySkipped > 0 {
			fmt.Printf("  certificate: %s; verification skipped for all %d epochs\n",
				s.CertStatus, s.VerifySkipped)
		} else {
			fmt.Printf("  certificate: %s; full verification kept (%s)\n",
				s.CertStatus, s.VerifyFallback)
		}
	}
	if s.SpareGrows > 0 || s.SpareShrinks > 0 {
		fmt.Printf("  controller: %d grows, %d shrinks, %d active spares at completion\n",
			s.SpareGrows, s.SpareShrinks, s.ActiveSpares)
	}
	for _, d := range res.Divergences {
		switch d.Kind {
		case "state":
			fmt.Printf("  divergence @epoch %d: states disagreed on pages %v\n", d.Epoch, d.Pages)
		default:
			fmt.Printf("  divergence @epoch %d: %s\n", d.Epoch, d.Reason)
		}
	}
}

// check reports a runtime failure: message to stderr, exit 1.
func check(err error) {
	if err != nil {
		fatal(err.Error())
	}
}

// fatal is the runtime-failure exit: exit code 1, no usage text.
func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "doubleplay: "+msg)
	os.Exit(1)
}

// usageErr is the invocation-error exit: message plus usage to stderr,
// exit code 2 (matching flag.ExitOnError's convention).
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "doubleplay: "+msg)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: doubleplay <command> [flags]   (a flag the command does not read is refused)

commands:
  list     show the builtin benchmark suite
  record   record a workload (optionally -o file.dplog)
  replay   replay -log f [-parallel | -stride N]: replay a recording against the
           workload its header names (-w, -workers and -seed must agree with it),
           sequentially, by the parallel plan or from every N-th checkpoint
  verify   record + replay in memory, checking every hash and the guest self-check
           (-parallel and -stride N each add a replay by that plan)
  log      .dplog file tooling (see docs/FORMAT.md):
             log inspect -log f.dplog [-epoch N]  header, sections with each epoch's counts, index health
                                                  (-epoch: one section's frame + boundary info)
             log upgrade -log f.dplog [-o out]    repair a damaged index, in place by default
             log extract -log f.dplog -epochs n..m -o out
  disasm   disassemble a workload's guest program
  races    run the happens-before detector over a workload
  serve    run the record/replay job daemon (see docs/SERVER.md)
  store    daemon artifact-store tooling (offline; -data selects the store):
             store stats -data ./dpdata [-json]   recordings and space accounting
             store gc -data ./dpdata [-max-age 720h] [-max-bytes N] [-dry-run]
             store fsck -data ./dpdata [-json]    full integrity walk (exit 1 on damage)`)
}
