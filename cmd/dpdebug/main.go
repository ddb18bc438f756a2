// Command dpdebug is the time-travel debugger over .dplog recordings:
// deterministic replay makes every point of a recorded execution
// reachable bit-identically, so the debugger can step forwards and
// BACKWARDS, watch guest memory words in either direction, and bisect
// where two recordings of a racy program first diverge.
//
// Usage:
//
//	dpdebug repl   -log a.dplog [-scale N] [-watch addr]...
//	dpdebug bisect -a a.dplog -b b.dplog [-scale N] [-json]
//	dpdebug diff   -a a.dplog -b b.dplog -epoch N [-scale N] [-json]
//
// The workload is rebuilt as the log header names it (program, workers,
// seed); pass -scale when the recording was made with a non-default
// problem size, since the header does not carry it. Sessions seek sections
// out of the log; internal/debug's tests hold them to the fully decoded
// recording.
//
// Exit codes follow the doubleplay/dptrace convention:
//
//	0  ok (repl quit; bisect/diff found no divergence)
//	1  usage or I/O error
//	2  debug assertion failure (recording and program disagree)
//	3  divergence found (bisect/diff)
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"doubleplay/internal/debug"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  dpdebug repl   -log a.dplog [-scale N] [-watch addr]...
  dpdebug bisect -a a.dplog -b b.dplog [-scale N] [-json]
  dpdebug diff   -a a.dplog -b b.dplog -epoch N [-scale N] [-json]
`)
	os.Exit(1)
}

func fatalIO(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dpdebug: "+format+"\n", args...)
	os.Exit(1)
}

func fatalAssert(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dpdebug: assertion: "+format+"\n", args...)
	os.Exit(2)
}

// watchList collects repeated -watch flags.
type watchList []vm.Word

func (w *watchList) String() string { return fmt.Sprint(*w) }
func (w *watchList) Set(s string) error {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return err
	}
	*w = append(*w, vm.Word(v))
	return nil
}

// openSession opens path as a debug session, rebuilding the workload its
// header names at the given scale.
func openSession(path string, scale int) *debug.Session {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalIO("%v", err)
	}
	rd, err := dplog.OpenReaderBytes(data)
	if err != nil {
		fatalIO("%s: %v", path, err)
	}
	wl, p, err := workloads.ForLog(rd.Header(), "", workloads.Params{Scale: scale})
	if err != nil {
		fatalIO("%s: %v", path, err)
	}
	s, err := debug.New(wl.Program(p), replay.FromReader(rd), nil)
	if err != nil {
		fatalAssert("%s: %v", path, err)
	}
	return s
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet("dpdebug "+cmd, flag.ExitOnError)
	fs.Usage = usage
	var (
		logPath = fs.String("log", "", "recording to debug (repl)")
		pathA   = fs.String("a", "", "first recording (bisect/diff)")
		pathB   = fs.String("b", "", "second recording (bisect/diff)")
		scale   = fs.Int("scale", 1, "problem size multiplier the recording was made with")
		asJSON  = fs.Bool("json", false, "machine-readable output (bisect/diff)")
		epochN  = fs.Int("epoch", -1, "boundary to diff (diff)")
		watches watchList
	)
	fs.Var(&watches, "watch", "arm a watchpoint at guest address (repeatable; repl)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}

	switch cmd {
	case "repl":
		if *logPath == "" {
			usage()
		}
		s := openSession(*logPath, *scale)
		for _, a := range watches {
			s.AddWatch(a)
		}
		repl(s)
	case "bisect", "diff":
		if *pathA == "" || *pathB == "" {
			usage()
		}
		if cmd == "diff" && *epochN < 0 {
			usage()
		}
		sa := openSession(*pathA, *scale)
		sb := openSession(*pathB, *scale)
		var res *debug.BisectResult
		var err error
		if cmd == "bisect" {
			res, err = debug.Bisect(sa, sb)
		} else {
			res, err = debug.CompareAt(sa, sb, *epochN)
		}
		if err != nil {
			fatalAssert("%v", err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fatalIO("%v", err)
			}
		} else {
			renderBisect(os.Stdout, *pathA, *pathB, res)
		}
		if res.Diverged {
			os.Exit(3)
		}
	default:
		usage()
	}
}

// renderBisect prints the human-readable divergence report.
func renderBisect(w *os.File, pathA, pathB string, res *debug.BisectResult) {
	fmt.Fprintf(w, "a: %s (%d epochs)\n", pathA, res.EpochsA)
	fmt.Fprintf(w, "b: %s (%d epochs)\n", pathB, res.EpochsB)
	switch {
	case !res.Diverged:
		fmt.Fprintf(w, "no divergence: recordings agree at every epoch boundary\n")
		return
	case res.Tail:
		fmt.Fprintf(w, "tail divergence: every common boundary agrees, but the epoch counts differ (%d vs %d)\n",
			res.EpochsA, res.EpochsB)
		return
	}
	fmt.Fprintf(w, "first divergent boundary: epoch %d (hash %s vs %s)\n", res.Epoch, res.HashA, res.HashB)
	if res.Epoch > 0 {
		fmt.Fprintf(w, "boundary %d agrees: the executions diverged inside epoch %d\n", res.Epoch-1, res.Epoch-1)
	}
	d := res.Diff
	if d == nil {
		return
	}
	fmt.Fprintf(w, "threads: %d vs %d, %d differ\n", d.ThreadsA, d.ThreadsB, len(d.Threads))
	for _, td := range d.Threads {
		switch td.OnlyIn {
		case "a":
			fmt.Fprintf(w, "  tid %d only in a: pc %d (%s) retired %d %s\n", td.Tid, td.PCA, td.FuncA, td.RetiredA, td.StatusA)
		case "b":
			fmt.Fprintf(w, "  tid %d only in b: pc %d (%s) retired %d %s\n", td.Tid, td.PCB, td.FuncB, td.RetiredB, td.StatusB)
		default:
			fmt.Fprintf(w, "  tid %d: pc %d (%s) vs %d (%s); retired %d vs %d; status %s vs %s; %d regs differ\n",
				td.Tid, td.PCA, td.FuncA, td.PCB, td.FuncB, td.RetiredA, td.RetiredB, td.StatusA, td.StatusB, len(td.RegsDiffer))
		}
	}
	fmt.Fprintf(w, "memory: %d words differ across %d pages\n", d.WordsDiffer, d.PagesDiffer)
	for _, wd := range d.Words {
		fmt.Fprintf(w, "  [%#x] %d vs %d\n", uint64(wd.Addr), uint64(wd.A), uint64(wd.B))
	}
	if d.WordsDiffer > len(d.Words) {
		fmt.Fprintf(w, "  ... %d more\n", d.WordsDiffer-len(d.Words))
	}
}

// where prints the current stop point and what runs next.
func where(s *debug.Session) {
	fmt.Printf("at %s cycle %d hash %016x", s.Position(), s.Cycles(), s.StateHash())
	if tid, ok := s.NextTid(); ok {
		t := s.Thread(tid)
		fmt.Printf("; next tid %d pc %d (%s)", tid, t.PC, s.FuncName(t.PC))
	} else if s.AtEnd() {
		fmt.Printf("; end of recording")
	}
	fmt.Println()
}

// printEvent prints one retired instruction.
func printEvent(s *debug.Session, ev replay.StepEvent) {
	sig := ""
	if ev.Signal {
		sig = " signal"
	}
	fmt.Printf("tid %d pc %d (%s)%s -> %s\n", ev.Tid, ev.PC, s.FuncName(ev.PC), sig, s.Position())
}

// printHits prints the watch hits of the last stop.
func printHits(s *debug.Session, hits []debug.Hit) {
	for _, h := range hits {
		fmt.Printf("watch hit [%#x]: %d -> %d at %s (tid %d pc %d %s)\n",
			uint64(h.Addr), uint64(h.Old), uint64(h.New), h.Pos, h.Tid, h.PC, s.FuncName(h.PC))
	}
}

// motionErr handles a motion command's error: boundary bumps are
// ordinary, anything else poisons the session (exit 2).
func motionErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, debug.ErrAtStart) || errors.Is(err, debug.ErrAtEnd) {
		fmt.Println(err)
		return true
	}
	fatalAssert("%v", err)
	return true
}

// parseNum parses a decimal/hex number argument.
func parseNum(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }

// argOr returns the optional numeric argument or def.
func argOr(args []string, def uint64) uint64 {
	if len(args) == 0 {
		return def
	}
	v, err := parseNum(args[0])
	if err != nil {
		fmt.Printf("bad number %q\n", args[0])
		return def
	}
	return v
}

func replHelp() {
	fmt.Print(`commands:
  info                 recording summary
  where                current position, cycle, state hash
  threads              all threads
  run <epoch>          position at an epoch boundary
  runc <cycle>         position at a cycle count
  step|s [n]           retire n instructions (default 1)
  next|n               step over calls
  rstep|rs [n]         reverse-step n instructions
  continue|c           run forward to the next watch hit
  rcontinue|rc         run backward to the previous watch hit
  watch <addr>         arm a data watchpoint (hex or decimal)
  unwatch <addr>       disarm it
  watches              list watchpoints
  regs [tid]           register file (default: next thread)
  mem <addr> [n]       dump n guest words (default 8)
  stack [tid]          guest call stack (default: next thread)
  quit|q               exit
`)
}

// repl drives the interactive (or piped) command loop.
func repl(s *debug.Session) {
	fmt.Printf("%s: %d epochs, %d threads at entry\n", s.Program(), s.NumEpochs(), len(s.Threads()))
	where(s)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Fprint(os.Stderr, "(dpdebug) ")
		if !sc.Scan() {
			fmt.Fprintln(os.Stderr)
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "q", "exit":
			return
		case "help", "h", "?":
			replHelp()
		case "info":
			fmt.Printf("program %s: %d epochs, %d threads, position %s, cycle %d\n",
				s.Program(), s.NumEpochs(), len(s.Threads()), s.Position(), s.Cycles())
			fmt.Printf("watches: %d armed\n", len(s.Watches()))
		case "where", "w":
			where(s)
		case "threads":
			for _, t := range s.Threads() {
				fmt.Printf("tid %d: pc %d (%s) %s retired %d depth %d\n",
					t.ID, t.PC, s.FuncName(t.PC), t.Status, t.Retired, len(t.Frames))
			}
		case "run":
			if len(args) != 1 {
				fmt.Println("usage: run <epoch>")
				continue
			}
			e, err := parseNum(args[0])
			if err != nil {
				fmt.Printf("bad epoch %q\n", args[0])
				continue
			}
			if motionErr(s.RunToEpoch(int(e))) {
				continue
			}
			where(s)
		case "runc":
			if len(args) != 1 {
				fmt.Println("usage: runc <cycle>")
				continue
			}
			c, err := parseNum(args[0])
			if err != nil {
				fmt.Printf("bad cycle %q\n", args[0])
				continue
			}
			if motionErr(s.RunToCycle(int64(c))) {
				continue
			}
			where(s)
		case "step", "s":
			n := argOr(args, 1)
			for i := uint64(0); i < n; i++ {
				ev, err := s.Step()
				if motionErr(err) {
					break
				}
				printEvent(s, ev)
				printHits(s, s.LastHits())
			}
		case "next", "n":
			ev, err := s.StepOver()
			if motionErr(err) {
				continue
			}
			printEvent(s, ev)
			printHits(s, s.LastHits())
		case "rstep", "rs":
			n := argOr(args, 1)
			for i := uint64(0); i < n; i++ {
				if motionErr(s.ReverseStep()) {
					break
				}
			}
			where(s)
		case "continue", "c":
			hits, err := s.Continue()
			if motionErr(err) {
				continue
			}
			if hits == nil {
				fmt.Println("end of recording reached")
			}
			printHits(s, hits)
			where(s)
		case "rcontinue", "rc":
			hits, err := s.ReverseContinue()
			if motionErr(err) {
				continue
			}
			if hits == nil {
				fmt.Println("start of recording reached")
			}
			printHits(s, hits)
			where(s)
		case "watch":
			if len(args) != 1 {
				fmt.Println("usage: watch <addr>")
				continue
			}
			a, err := parseNum(args[0])
			if err != nil {
				fmt.Printf("bad address %q\n", args[0])
				continue
			}
			s.AddWatch(vm.Word(a))
			fmt.Printf("watching [%#x]\n", a)
		case "unwatch":
			if len(args) != 1 {
				fmt.Println("usage: unwatch <addr>")
				continue
			}
			a, err := parseNum(args[0])
			if err != nil {
				fmt.Printf("bad address %q\n", args[0])
				continue
			}
			if s.RemoveWatch(vm.Word(a)) {
				fmt.Printf("unwatched [%#x]\n", a)
			} else {
				fmt.Printf("no watch at [%#x]\n", a)
			}
		case "watches":
			for _, a := range s.Watches() {
				fmt.Printf("[%#x] = %d\n", uint64(a), uint64(s.ReadMemory(a, 1)[0]))
			}
		case "regs":
			tid := defaultTid(s, args)
			t := s.Thread(tid)
			if t == nil {
				fmt.Printf("no thread %d\n", tid)
				continue
			}
			fmt.Printf("tid %d pc %d (%s) %s retired %d\n", t.ID, t.PC, s.FuncName(t.PC), t.Status, t.Retired)
			for r := 0; r < vm.NumRegs; r += 8 {
				fmt.Printf("r%-2d:", r)
				for k := r; k < r+8; k++ {
					fmt.Printf(" %d", int64(t.Regs[k]))
				}
				fmt.Println()
			}
		case "mem":
			if len(args) < 1 {
				fmt.Println("usage: mem <addr> [n]")
				continue
			}
			a, err := parseNum(args[0])
			if err != nil {
				fmt.Printf("bad address %q\n", args[0])
				continue
			}
			n := argOr(args[1:], 8)
			for i, v := range s.ReadMemory(vm.Word(a), int(n)) {
				fmt.Printf("[%#x] %d\n", a+uint64(i), uint64(v))
			}
		case "stack":
			tid := defaultTid(s, args)
			frames, err := s.Stack(tid)
			if err != nil {
				fmt.Println(err)
				continue
			}
			for i := len(frames) - 1; i >= 0; i-- {
				fmt.Printf("#%d %s\n", len(frames)-1-i, frames[i])
			}
		case "hash":
			fmt.Printf("%016x\n", s.StateHash())
		default:
			fmt.Printf("unknown command %q (try help)\n", cmd)
		}
	}
}

// defaultTid resolves an optional tid argument, defaulting to the next
// scheduled thread.
func defaultTid(s *debug.Session, args []string) int {
	if len(args) > 0 {
		if v, err := parseNum(args[0]); err == nil {
			return int(v)
		}
	}
	if tid, ok := s.NextTid(); ok {
		return tid
	}
	return 0
}
