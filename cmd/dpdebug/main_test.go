package main

import (
	"path/filepath"
	"strings"
	"testing"

	"doubleplay/internal/clitest"
)

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
		{"diff needs -epoch", []string{"diff", "-a", ra, "-b", rb}, "", 1, "usage:", nil},
		{"missing recording", []string{"bisect", "-a", filepath.Join(dir, "nosuch.dplog"), "-b", ra}, "", 1,
			"no such file", nil},
		{"repl steps, reverse-steps and stops on a watchpoint", []string{"repl", "-log", ra},
			"run 1\nstep 3\nrstep 2\nwatch 0x100001\ncontinue\nquit\n", 0, "",
			has("at epoch 1 step 0 ", "watching [0x100001]", "watch hit [0x100001]")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := clitest.Run(t, bin, tc.stdin, tc.argv...)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr, tc.stderr)
			}
			if tc.check != nil {
				tc.check(t, stdout)
			}
		})
	}
}
