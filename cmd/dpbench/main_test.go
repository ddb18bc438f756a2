package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"doubleplay/internal/exp"
)

// TestCLI builds dpbench once and holds its command line to a table of
// argv → exit code and stdout. Every table cell is a function of (seed,
// scale) alone, so testdata/table1.golden holds on any host.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dpbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var list strings.Builder
	for _, e := range exp.Experiments {
		fmt.Fprintf(&list, "%-14s %s: %s\n", e.Name, e.ID, e.Desc)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "table1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		argv   []string
		code   int
		stdout string
		stderr string // substring
	}{
		{"list equals the registry", []string{"-list"}, 0, list.String(), ""},
		{"unknown experiment", []string{"-exp", "nosuch"}, 2, "", `unknown experiment "nosuch"`},
		{"removed flag", []string{"-exp", "table1", "-trace", "out.json"}, 2, "", "flag provided but not defined: -trace"},
		{"table1", []string{"-exp", "table1", "-scale", "1"}, 0, string(golden), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.argv...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatal(err)
				}
				code = ee.ExitCode()
			}
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if stdout.String() != tc.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
		})
	}
}
