package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doubleplay/internal/clitest"
	"doubleplay/internal/trace"
)

// TestCLI builds dptrace once and holds its command line to a table of
// argv → exit code, stderr and the substrings stdout must hold. The inputs
// are what `doubleplay record` writes: racey under seeds 11 (twice, once
// with -prom and -guest-profile) and 12, racey under a pinned controller
// (min = max = spares), and two same-seed adaptive pbzip runs whose one
// active spare slot fills, so the controller grows.
func TestCLI(t *testing.T) {
	bin, doubleplay := clitest.Build(t, "."), clitest.Build(t, "../doubleplay")
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	racey := []string{"record", "-w", "racey", "-workers", "2"}
	adaptive := []string{"record", "-w", "pbzip", "-workers", "4", "-spares", "1", "-adaptive", "-min-spares", "1", "-max-spares", "4", "-seed", "11"}
	for _, argv := range [][]string{
		append(racey, "-seed", "11", "-trace", path("a.json"), "-prom", path("a.prom"), "-guest-profile", path("a.pb")),
		append(racey, "-seed", "11", "-trace", path("a2.json")),
		append(racey, "-seed", "12", "-trace", path("b.json")),
		append(racey, "-seed", "11", "-adaptive", "-min-spares", "2", "-max-spares", "2", "-trace", path("pin.json")),
		append(adaptive, "-trace", path("ad.json")),
		append(adaptive, "-trace", path("ad2.json")),
	} {
		if code, _, stderr := clitest.Run(t, doubleplay, "", argv...); code != 0 {
			t.Fatalf("doubleplay %v: exit %d: %s", argv, code, stderr)
		}
	}
	var js bytes.Buffer
	empty := trace.NewStreamSink(&js, 0)
	empty.Span("run", 0, 10, empty.AllocPid("guest only"), 0, nil)
	if err := empty.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"guest.json": js.String(),
		"bad.prom":   "# TYPE doubleplay_epochs counter\ndoubleplay_epochs\n", // a sample without a value
	} {
		if err := os.WriteFile(path(name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name   string
		argv   []string
		code   int
		stderr string   // substring
		stdout []string // substrings
	}{
		{"stats", []string{"stats", path("a.json")}, 0, "", []string{"epoch"}},
		{"same seed diffs clean", []string{"diff", path("a.json"), path("a2.json")}, 0, "", nil},
		{"another seed diverges", []string{"diff", path("a.json"), path("b.json")}, 3, "", []string{"first divergent epoch"}},
		{"an adaptive rerun diffs clean", []string{"diff", path("ad.json"), path("ad2.json")}, 0, "", nil},
		{"a pinned controller diffs clean against fixed spares", []string{"diff", path("pin.json"), path("a.json")}, 0, "", nil},
		{"lag narrates the controller", []string{"lag", path("ad.json")}, 0, "", []string{"controller: bounds"}},
		{"lag needs a recording", []string{"lag", path("guest.json")}, 1, "no recording process", nil},
		{"record -prom lints clean", []string{"promlint", path("a.prom")}, 0, "", []string{"ok"}},
		{"promlint reports a problem", []string{"promlint", path("bad.prom")}, 1, "", []string{"1 problem(s)"}},
		{"flame top table", []string{"flame", "-top", "5", path("a.pb")}, 0, "", []string{"function"}},
		{"flame folded stacks", []string{"flame", "-folded", path("a.pb")}, 0, "", []string{"main"}},
		{"missing file", []string{"stats", path("nosuch.json")}, 1, "no such file", nil},
		{"diff needs two traces", []string{"diff", path("a.json")}, 2, "usage:", nil},
		{"unknown command", []string{"nosuch"}, 2, "usage:", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := clitest.Run(t, bin, "", tc.argv...)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr, tc.stderr)
			}
			for _, s := range tc.stdout {
				if !strings.Contains(stdout, s) {
					t.Errorf("stdout lacks %q:\n%s", s, stdout)
				}
			}
		})
	}
}
