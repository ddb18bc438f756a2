// Package clitest builds the module's commands and runs them as child
// processes for the end-to-end tests under cmd/. Only _test.go files
// import it.
package clitest

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Build compiles the main package in dir (relative to the test's working
// directory, "." for the package under test) into a fresh temporary
// directory and returns the binary's path.
func Build(t testing.TB, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), filepath.Base(abs))
	if out, err := exec.Command("go", "build", "-o", bin, dir).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", dir, err, out)
	}
	return bin
}

// Run runs bin with argv and stdin on its standard input, and returns its
// exit code, stdout and stderr.
func Run(t testing.TB, bin, stdin string, argv ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, argv...)
	cmd.Stdin = strings.NewReader(stdin)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	return 0, stdout.String(), stderr.String()
}
