package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"doubleplay/internal/clitest"
	"doubleplay/internal/workloads"
)

// TestCLI builds dpvet once and holds its command line to a table of
// argv → exit code, stderr and a check on stdout: the screen over the whole
// suite, its certificates, the one-worker note and the usage errors.
func TestCLI(t *testing.T) {
	bin := clitest.Build(t, ".")
	names := workloads.Names()
	for _, tc := range []struct {
		name   string
		argv   []string
		code   int
		stderr string // substring
		check  func(t *testing.T, stdout string)
	}{
		{"quiet screens the suite in order", []string{"-q"}, 0, "",
			func(t *testing.T, stdout string) {
				var got []string
				for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
					f := strings.Fields(line)
					if len(f) < 2 || f[0] != "==" {
						t.Fatalf("unexpected line %q in:\n%s", line, stdout)
					}
					got = append(got, f[1])
				}
				if !reflect.DeepEqual(got, names) {
					t.Fatalf("screened %v, want %v", got, names)
				}
			}},
		{"certify as JSON", []string{"-json", "certify"}, 0, "",
			func(t *testing.T, stdout string) {
				var certs []struct{ Program, Status string }
				if err := json.Unmarshal([]byte(stdout), &certs); err != nil {
					t.Fatal(err)
				}
				status := map[string]string{}
				var got []string
				for _, c := range certs {
					got = append(got, c.Program)
					status[c.Program] = c.Status
				}
				if !reflect.DeepEqual(got, names) {
					t.Fatalf("certified %v, want %v", got, names)
				}
				for name, want := range map[string]string{
					"racey": "possibly-racy", "webserve-racy": "possibly-racy", "sigping": "race-free",
				} {
					if status[name] != want {
						t.Errorf("%s is %q, want %q", name, status[name], want)
					}
				}
			}},
		{"one worker skips the cross-check", []string{"-workers", "1", "-q", "racey"}, 0, "",
			func(t *testing.T, stdout string) {
				if !strings.Contains(stdout, "racy-metadata cross-check skipped with -workers 1") {
					t.Fatalf("no skip note in:\n%s", stdout)
				}
			}},
		{"unknown workload", []string{"nope"}, 2, `unknown workload "nope"`, nil},
		{"workers over the limit", []string{"-workers", "5000", "racey"}, 2, "workers 5000 is over the limit of 32", nil},
		{"undefined flag", []string{"-nosuch"}, 2, "flag provided but not defined: -nosuch", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := clitest.Run(t, bin, "", tc.argv...)
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
