package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doubleplay/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// TestREPLTranscript drives one session over the corpus racey log through
// every REPL command, every alias, an unknown command and each "bad …" and
// "usage: …" line (testdata/repl.in), and holds its whole stdout to
// testdata/repl.golden; -update rewrites the golden.
func TestREPLTranscript(t *testing.T) {
	bin := clitest.Build(t, ".")
	in, err := os.ReadFile(filepath.Join("testdata", "repl.in"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := clitest.Run(t, bin, string(in), "repl", "-log", filepath.Join("..", "..", "testdata", "logs", "racey.dplog"))
	if code != 0 {
		t.Fatalf("exit code %d (stderr: %s)", code, stderr)
	}
	golden := filepath.Join("testdata", "repl.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Fatalf("stdout differs from %s:\n%s", golden, stdout)
	}
}

// TestCLI builds dpdebug once and holds its command line to a table of
// argv (and stdin) → exit code, stderr and a check on stdout. Two
// recordings of racey, made by `doubleplay record` under seeds 1 and 4,
// start from the same state; the seeds only jitter the recorded schedules,
// so the races resolve differently and the executions drift apart at a
// fixed epoch.
func TestCLI(t *testing.T) {
	bin, doubleplay := clitest.Build(t, "."), clitest.Build(t, "../doubleplay")
	dir := t.TempDir()
	ra, rb := filepath.Join(dir, "ra.dplog"), filepath.Join(dir, "rb.dplog")
	for seed, out := range map[string]string{"1": ra, "4": rb} {
		if code, _, stderr := clitest.Run(t, doubleplay, "", "record", "-w", "racey", "-workers", "2", "-seed", seed, "-o", out); code != 0 {
			t.Fatalf("record -seed %s: exit %d: %s", seed, code, stderr)
		}
	}
	kvdb := filepath.Join("..", "..", "testdata", "logs", "kvdb.dplog")
	// The corpus racey log, its header naming more workers than any
	// program builds at.
	wide := filepath.Join(dir, "wide.dplog")
	clitest.WideLog(t, filepath.Join("..", "..", "testdata", "logs", "racey.dplog"), wide)
	has := func(subs ...string) func(*testing.T, string) {
		return func(t *testing.T, stdout string) {
			for _, s := range subs {
				if !strings.Contains(stdout, s) {
					t.Errorf("stdout lacks %q:\n%s", s, stdout)
				}
			}
		}
	}

	for _, tc := range []struct {
		name   string
		argv   []string
		stdin  string
		code   int
		stderr string // substring
		check  func(t *testing.T, stdout string)
	}{
		{"bisect pins the divergent epoch", []string{"bisect", "-a", ra, "-b", rb}, "", 3, "",
			has("first divergent boundary: epoch 1 ", "boundary 0 agrees")},
		{"bisect as JSON", []string{"bisect", "-a", ra, "-b", rb, "-json"}, "", 3, "",
			has(`"diverged": true`, `"epoch": 1,`)},
		{"a recording never diverges from itself", []string{"bisect", "-a", ra, "-b", ra}, "", 0, "",
			has("no divergence")},
		{"diff at the divergent boundary", []string{"diff", "-a", ra, "-b", rb, "-epoch", "1"}, "", 3, "",
			has("first divergent boundary: epoch 1 ", "memory: ")},
		{"diff at an agreeing boundary", []string{"diff", "-a", ra, "-b", rb, "-epoch", "0"}, "", 0, "",
			has("no divergence")},
		// The log header names the workers a session builds, so a value
		// that could only agree with it is no option (a usage error).
		{"-workers is not a flag", []string{"diff", "-a", ra, "-b", ra, "-epoch", "1", "-workers", "3"}, "", 1,
			"flag provided but not defined: -workers", nil},
		// One pair rule with the daemon's debug_diff job: two programs are
		// refused before either session opens.
		{"a pair of two programs is refused", []string{"bisect", "-a", ra, "-b", kvdb}, "", 2,
			ra + " runs racey at 2 workers, scale 1 but " + kvdb + " runs kvdb at 2 workers, scale 1",
			func(t *testing.T, stdout string) {
				if stdout != "" {
					t.Errorf("a refused pair printed a report:\n%s", stdout)
				}
			}},
		{"diff needs -epoch", []string{"diff", "-a", ra, "-b", rb}, "", 1, "usage:", nil},
		// A flag only another command reads is refused, not ignored.
		{"bisect does not read -epoch", []string{"bisect", "-a", ra, "-b", rb, "-epoch", "3"}, "", 1,
			"dpdebug: bisect does not read -epoch", nil},
		{"diff does not read -watch", []string{"diff", "-a", ra, "-b", rb, "-epoch", "1", "-watch", "5"}, "", 1,
			"dpdebug: diff does not read -watch", nil},
		{"repl does not read -json", []string{"repl", "-log", ra, "-json"}, "", 1,
			"dpdebug: repl does not read -json", nil},
		{"missing recording", []string{"bisect", "-a", filepath.Join(dir, "nosuch.dplog"), "-b", ra}, "", 1,
			"no such file", nil},
		{"repl steps, reverse-steps and stops on a watchpoint", []string{"repl", "-log", ra},
			"run 1\nstep 3\nrstep 2\nwatch 0x100001\ncontinue\nquit\n", 0, "",
			has("at epoch 1 step 0 ", "watching [0x100001]", "watch hit [0x100001]")},
		{"a log header over the worker limit is refused", []string{"repl", "-log", wide}, "quit\n", 1,
			"workers 5000 is over the limit of 32", nil},
		{"-scale over the limit is refused", []string{"repl", "-log", ra, "-scale", "65"}, "quit\n", 1,
			"scale 65 is over the limit of 64", nil},
		// A count or epoch out of bounds is one refused line, not the end
		// of the session.
		{"repl refuses a count and an epoch over their bounds", []string{"repl", "-log", ra},
			"mem 0 0xffffffffffffffff\nrun 99\nwhere\nquit\n", 0, "",
			has("bad number 18446744073709551615 (at most 65536)", "debug: no such epoch: 99 is out of range 0..3", "at epoch 0 step 0 ")},
		// step and rstep take any count and stop at the recording's ends.
		{"repl steps and reverse-steps by a count past either end", []string{"repl", "-log", ra},
			"step 3\nrstep 100000\nstep 100000\nwhere\nquit\n", 0, "",
			has("debug: already at the start of the recording", "debug: already at the end of the recording", "at epoch 3 step 0 ")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := clitest.Run(t, bin, tc.stdin, tc.argv...)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) || strings.Contains(stderr, "panic:") {
				t.Errorf("stderr %q lacks %q or panics", stderr, tc.stderr)
			}
			if tc.check != nil {
				tc.check(t, stdout)
			}
		})
	}
}
