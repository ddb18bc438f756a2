package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"doubleplay/internal/trace"
)

// TestCLI builds doubleplay once and holds its command line to a table of
// argv → exit code, stderr and a check on what the command wrote. Rows run
// in order in one directory, so a later row may read an earlier row's
// files.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "doubleplay")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	path := func(name string) string { return filepath.Join(dir, name) }
	parse := func(t *testing.T, name string) []trace.Event {
		t.Helper()
		f, err := os.Open(path(name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		evs, err := trace.ParseJSON(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return evs
	}
	traceLine := regexp.MustCompile(`(?m)^trace: (\d+) events streamed -> `)
	record := []string{"record", "-w", "racey", "-workers", "2", "-seed", "11"}

	for _, tc := range []struct {
		name   string
		argv   []string
		code   int
		stderr string // substring
		check  func(t *testing.T, stdout string)
	}{
		{"record counts what it streams", append(record, "-trace", path("a.json"), "-o", path("a.dplog")), 0, "",
			func(t *testing.T, stdout string) {
				m := traceLine.FindStringSubmatch(stdout)
				if m == nil {
					t.Fatalf("no trace line in:\n%s", stdout)
				}
				n, _ := strconv.Atoi(m[1])
				if evs := parse(t, "a.json"); n != len(evs) {
					t.Fatalf("trace line says %d events, file holds %d", n, len(evs))
				}
			}},
		{"record again writes the same bytes", append(record, "-trace", path("a2.json")), 0, "",
			func(t *testing.T, _ string) {
				a, _ := os.ReadFile(path("a.json"))
				a2, _ := os.ReadFile(path("a2.json"))
				if len(a) == 0 || !bytes.Equal(a, a2) {
					t.Fatalf("two same-seed traces differ (%d and %d bytes)", len(a), len(a2))
				}
			}},
		{"replay streams a trace",
			[]string{"replay", "-w", "racey", "-workers", "2", "-log", path("a.dplog"), "-trace", path("r.json")}, 0, "",
			func(t *testing.T, stdout string) {
				if evs := parse(t, "r.json"); !strings.Contains(stdout, fmt.Sprintf("trace: %d events", len(evs))) {
					t.Fatalf("%d events in the file; stdout:\n%s", len(evs), stdout)
				}
			}},
		{"removed flag", append(record, "-trace-window", "8"), 2, "flag provided but not defined: -trace-window", nil},
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
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
			if tc.check != nil {
				tc.check(t, stdout.String())
			}
		})
	}
}
