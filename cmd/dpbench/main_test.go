package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doubleplay/internal/clitest"
	"doubleplay/internal/exp"
)

// TestCLI builds dpbench once and holds its command line to a table of
// argv → exit code and stdout. Every table cell is a function of (seed,
// scale) alone, so testdata/table1.golden holds on any host.
func TestCLI(t *testing.T) {
	bin := clitest.Build(t, ".")
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
		{"scale over the limit", []string{"-exp", "table1", "-scale", "5000"}, 2, "", "scale 5000 is over the limit of 64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := clitest.Run(t, bin, "", tc.argv...)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if stdout != tc.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout, tc.stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr, tc.stderr)
			}
		})
	}
}
