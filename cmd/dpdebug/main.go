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
// seed; server.OpenLog, as every replay front end does); pass -scale when
// the recording was made with a non-default problem size, since the header
// does not carry it. bisect and diff refuse two recordings whose program,
// workers or scale differ. A flag the command does not read is a usage
// error. Sessions seek sections out of the log;
// internal/debug's tests hold them to the fully decoded recording.
//
// Exit codes (a usage error exits 1 here, where doubleplay and dptrace
// exit 2):
//
//	0  ok (repl quit; bisect/diff found no divergence)
//	1  usage or I/O error, or a log or -scale over the guest bounds
//	   (workloads.Params.Check)
//	2  debug assertion failure (recording and program disagree, or the two
//	   recordings of bisect/diff run different programs)
//	3  divergence found (bisect/diff)
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"doubleplay/internal/debug"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/server"
	"doubleplay/internal/vm"
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

// openLog opens path as a log resolved against the workload its header
// names at the given scale (server.OpenLog).
func openLog(path string, scale int) *server.Log {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalIO("%v", err)
	}
	rd, err := dplog.OpenReaderBytes(data)
	if err != nil {
		fatalIO("%s: %v", path, err)
	}
	l, err := server.OpenLog(path, rd, &server.Spec{Scale: scale})
	if err != nil {
		fatalIO("%v", err)
	}
	return l
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
		watches []vm.Word
	)
	fs.Func("watch", "arm a watchpoint at guest address (repeatable; repl)", func(v string) error {
		a, err := strconv.ParseUint(v, 0, 64)
		watches = append(watches, vm.Word(a))
		return err
	})
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}
	known, ok := reads[cmd]
	if !ok {
		usage()
	}
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(known), f.Name) {
			fmt.Fprintf(os.Stderr, "dpdebug: %s does not read -%s\n", cmd, f.Name)
			usage()
		}
	})

	switch cmd {
	case "repl":
		if *logPath == "" {
			usage()
		}
		s, err := openLog(*logPath, *scale).Session(context.Background())
		if err != nil {
			fatalAssert("%v", err)
		}
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
		// bisect cannot set -epoch, so it passes the default, -1: bisect.
		res, err := openLog(*pathA, *scale).Diff(context.Background(), openLog(*pathB, *scale), *epochN)
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
	}
}

// reads names the flags each command reads. A command line that sets any
// other flag is a usage error.
var reads = map[string]string{
	"repl":   "log scale watch",
	"bisect": "a b scale json",
	"diff":   "a b epoch scale json",
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

// printStep prints one retired instruction and the watch hits it made.
func printStep(s *debug.Session, ev replay.StepEvent) {
	sig := ""
	if ev.Signal {
		sig = " signal"
	}
	fmt.Printf("tid %d pc %d (%s)%s -> %s\n", ev.Tid, ev.PC, s.FuncName(ev.PC), sig, s.Position())
	printHits(s, s.LastHits())
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
	if errors.Is(err, debug.ErrAtStart) || errors.Is(err, debug.ErrAtEnd) || errors.Is(err, debug.ErrNoEpoch) {
		fmt.Println(err)
		return true
	}
	fatalAssert("%v", err)
	return true
}

// resume runs continue or rcontinue: motion to the next watch hit, or to
// the recording's end it names when none comes.
func resume(s *debug.Session, motion func() ([]debug.Hit, error), end string) {
	hits, err := motion()
	if motionErr(err) {
		return
	}
	if hits == nil {
		fmt.Println(end)
	}
	printHits(s, hits)
	where(s)
}

// maxWords bounds mem's count: ReadMemory allocates that many words.
const maxWords = 1 << 16

// replCmd is one REPL command.
type replCmd struct {
	names string // as help shows them ("step|s"); usage lines name the first
	alias string // a further name help does not show
	args  string // argument list: <required> then [optional], each a number
	help  string // help line; "" keeps the command out of help
	// run acts on the parsed arguments; nil ends the session.
	run func(s *debug.Session, a []uint64)
}

// replCmds is the REPL's command table, in help order. init fills it
// because help's action prints the table itself.
var replCmds []replCmd

func init() {
	replCmds = []replCmd{
		{names: "info", help: "recording summary", run: func(s *debug.Session, _ []uint64) {
			fmt.Printf("program %s: %d epochs, %d threads, position %s, cycle %d\n",
				s.Program(), s.NumEpochs(), len(s.Threads()), s.Position(), s.Cycles())
			fmt.Printf("watches: %d armed\n", len(s.Watches()))
		}},
		{names: "where", alias: "w", help: "current position, cycle, state hash", run: func(s *debug.Session, _ []uint64) { where(s) }},
		{names: "threads", help: "all threads", run: func(s *debug.Session, _ []uint64) {
			for _, t := range s.Threads() {
				fmt.Printf("tid %d: pc %d (%s) %s retired %d depth %d\n",
					t.ID, t.PC, s.FuncName(t.PC), t.Status, t.Retired, len(t.Frames))
			}
		}},
		{names: "run", args: "<epoch>", help: "position at an epoch boundary", run: func(s *debug.Session, a []uint64) {
			if !motionErr(s.RunToEpoch(int(a[0]))) {
				where(s)
			}
		}},
		{names: "runc", args: "<cycle>", help: "position at a cycle count", run: func(s *debug.Session, a []uint64) {
			if !motionErr(s.RunToCycle(int64(a[0]))) {
				where(s)
			}
		}},
		{names: "step|s", args: "[n]", help: "retire n instructions (default 1)", run: func(s *debug.Session, a []uint64) {
			for range opt(a, 0, 1) {
				ev, err := s.Step()
				if motionErr(err) {
					break
				}
				printStep(s, ev)
			}
		}},
		{names: "next|n", help: "step over calls", run: func(s *debug.Session, _ []uint64) {
			if ev, err := s.StepOver(); !motionErr(err) {
				printStep(s, ev)
			}
		}},
		{names: "rstep|rs", args: "[n]", help: "reverse-step n instructions", run: func(s *debug.Session, a []uint64) {
			for range opt(a, 0, 1) {
				if motionErr(s.ReverseStep()) {
					break
				}
			}
			where(s)
		}},
		{names: "continue|c", help: "run forward to the next watch hit", run: func(s *debug.Session, _ []uint64) {
			resume(s, s.Continue, "end of recording reached")
		}},
		{names: "rcontinue|rc", help: "run backward to the previous watch hit", run: func(s *debug.Session, _ []uint64) {
			resume(s, s.ReverseContinue, "start of recording reached")
		}},
		{names: "watch", args: "<addr>", help: "arm a data watchpoint (hex or decimal)", run: func(s *debug.Session, a []uint64) {
			s.AddWatch(vm.Word(a[0]))
			fmt.Printf("watching [%#x]\n", a[0])
		}},
		{names: "unwatch", args: "<addr>", help: "disarm it", run: func(s *debug.Session, a []uint64) {
			if s.RemoveWatch(vm.Word(a[0])) {
				fmt.Printf("unwatched [%#x]\n", a[0])
			} else {
				fmt.Printf("no watch at [%#x]\n", a[0])
			}
		}},
		{names: "watches", help: "list watchpoints", run: func(s *debug.Session, _ []uint64) {
			for _, a := range s.Watches() {
				fmt.Printf("[%#x] = %d\n", uint64(a), uint64(s.ReadMemory(a, 1)[0]))
			}
		}},
		{names: "regs", args: "[tid]", help: "register file (default: next thread)", run: func(s *debug.Session, a []uint64) {
			id := tid(s, a)
			t := s.Thread(id)
			if t == nil {
				fmt.Printf("no thread %d\n", id)
				return
			}
			fmt.Printf("tid %d pc %d (%s) %s retired %d\n", t.ID, t.PC, s.FuncName(t.PC), t.Status, t.Retired)
			for r := 0; r < vm.NumRegs; r += 8 {
				fmt.Printf("r%-2d:", r)
				for k := r; k < r+8; k++ {
					fmt.Printf(" %d", int64(t.Regs[k]))
				}
				fmt.Println()
			}
		}},
		{names: "mem", args: "<addr> [n]", help: "dump n guest words (default 8)", run: func(s *debug.Session, a []uint64) {
			n := opt(a, 1, 8)
			if n > maxWords {
				fmt.Printf("bad number %d (at most %d)\n", n, maxWords)
				return
			}
			for i, v := range s.ReadMemory(vm.Word(a[0]), int(n)) {
				fmt.Printf("[%#x] %d\n", a[0]+uint64(i), uint64(v))
			}
		}},
		{names: "stack", args: "[tid]", help: "guest call stack (default: next thread)", run: func(s *debug.Session, a []uint64) {
			frames, err := s.Stack(tid(s, a))
			if err != nil {
				fmt.Println(err)
				return
			}
			for i := len(frames) - 1; i >= 0; i-- {
				fmt.Printf("#%d %s\n", len(frames)-1-i, frames[i])
			}
		}},
		{names: "hash", run: func(s *debug.Session, _ []uint64) { fmt.Printf("%016x\n", s.StateHash()) }},
		{names: "quit|q", alias: "exit", help: "exit"},
		{names: "help|h|?", run: func(*debug.Session, []uint64) {
			fmt.Println("commands:")
			for _, c := range replCmds {
				if c.help != "" {
					fmt.Printf("  %-20s %s\n", strings.TrimSpace(c.names+" "+c.args), c.help)
				}
			}
		}},
	}
}

// parse reads a command's arguments against its list, each a decimal or
// 0x-hex number. A wrong count prints the usage line and a bad required
// argument its "bad" line, and either refuses the command; a bad optional
// one prints "bad number" and is left out, so the command runs with its
// default.
func (c *replCmd) parse(fields []string) ([]uint64, bool) {
	list := strings.Fields(c.args)
	if len(fields) > len(list) || len(fields) < strings.Count(c.args, "<") {
		fmt.Println(strings.TrimSpace("usage: " + strings.Split(c.names, "|")[0] + " " + c.args))
		return nil, false
	}
	a := make([]uint64, 0, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 0, 64)
		if err != nil {
			fmt.Printf("bad %s %q\n", noun(list[i]), f)
			return a, list[i][0] == '['
		}
		a = append(a, v)
	}
	return a, true
}

// noun names an argument of the table's lists as its "bad" line does.
func noun(arg string) string {
	switch arg {
	case "<addr>":
		return "address"
	case "<epoch>":
		return "epoch"
	case "<cycle>":
		return "cycle"
	}
	return "number"
}

// opt returns argument i, or def when it was not given.
func opt(a []uint64, i int, def uint64) uint64 {
	if i < len(a) {
		return a[i]
	}
	return def
}

// tid returns the optional thread argument, or the next scheduled thread.
func tid(s *debug.Session, a []uint64) int {
	next, _ := s.NextTid()
	return int(opt(a, 0, uint64(next)))
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
		i := slices.IndexFunc(replCmds, func(c replCmd) bool {
			return c.alias == fields[0] || slices.Contains(strings.Split(c.names, "|"), fields[0])
		})
		switch {
		case i < 0:
			fmt.Printf("unknown command %q (try help)\n", fields[0])
		case replCmds[i].run == nil:
			return
		default:
			if a, ok := replCmds[i].parse(fields[1:]); ok {
				replCmds[i].run(s, a)
			}
		}
	}
}
