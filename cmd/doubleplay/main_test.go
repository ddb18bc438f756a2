package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"doubleplay/internal/clitest"
	"doubleplay/internal/dptrace"
	"doubleplay/internal/trace"
)

// TestCLI builds doubleplay once and holds its command line to a table of
// argv → exit code, stderr and a check on what the command wrote. Rows run
// in order in one directory, so a later row may read an earlier row's
// files.
func TestCLI(t *testing.T) {
	bin := clitest.Build(t, ".")
	dir := t.TempDir()
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
	// match requires stdout to match every pattern.
	match := func(patterns ...string) func(*testing.T, string) {
		return func(t *testing.T, stdout string) {
			for _, p := range patterns {
				if !regexp.MustCompile(p).MatchString(stdout) {
					t.Errorf("stdout does not match %q:\n%s", p, stdout)
				}
			}
		}
	}
	// sameFile requires two files the command wrote to hold the same bytes.
	sameFile := func(t *testing.T, a, b string) {
		t.Helper()
		da, _ := os.ReadFile(path(a))
		db, _ := os.ReadFile(path(b))
		if len(da) == 0 || !bytes.Equal(da, db) {
			t.Fatalf("%s and %s differ (%d and %d bytes)", a, b, len(da), len(db))
		}
	}
	traceLine := regexp.MustCompile(`(?m)^trace: (\d+) events streamed -> `)
	finalHash := regexp.MustCompile(`final hash ([0-9a-f]{16}) verified`)
	var certHash string // the final hash the certified sigping log replays to
	// The cycles verify prices each plan of the default kvdb spec at, which
	// replay -log of the same recording must print.
	planCycles := map[string]string{}
	verifyLine := regexp.MustCompile(`(?m)^(parallel|sparse) replay: +OK \(.*?(\d+) cycles`)
	replayCycles := regexp.MustCompile(`(?m)^replayed \d+ epochs in (\d+) simulated cycles`)
	samePlan := func(plan string) func(*testing.T, string) {
		return func(t *testing.T, stdout string) {
			m := replayCycles.FindStringSubmatch(stdout)
			if m == nil || planCycles[plan] == "" || m[1] != planCycles[plan] {
				t.Fatalf("verify prices the %s plan at %q cycles; stdout:\n%s", plan, planCycles[plan], stdout)
			}
		}
	}
	record := []string{"record", "-w", "racey", "-workers", "2", "-seed", "11"}
	sigping := []string{"-w", "sigping", "-workers", "2", "-seed", "11"}
	adaptive := []string{"-w", "pbzip", "-workers", "4", "-seed", "11"}
	list, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// A retired v5 log, which every command refuses, and a v6 log cut
	// inside its footer, which log upgrade repairs in place.
	for name, fixture := range map[string]string{"legacy.dplog": "v5.dplog", "cut.dplog": "v6_raw.dplog"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "dplog", "testdata", fixture))
		if err != nil {
			t.Fatal(err)
		}
		if name == "cut.dplog" {
			data = data[:len(data)-1]
		}
		if err := os.WriteFile(path(name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	logRefusal := "commit 965294b, the last build that converts one"
	// The corpus racey log, its header naming more workers than any
	// program builds at.
	clitest.WideLog(t, filepath.Join("..", "..", "testdata", "logs", "racey.dplog"), path("wide.dplog"))
	// A store in the retired chunk layout: a manifests/ directory is what
	// marks one.
	chunkStore := path("chunkstore")
	if err := os.MkdirAll(filepath.Join(chunkStore, "manifests"), 0o755); err != nil {
		t.Fatal(err)
	}
	refusal := chunkStore + " is in the retired chunk layout; `doubleplay store upgrade` of commit 965294b"

	for _, tc := range []struct {
		name   string
		argv   []string
		code   int
		stderr string // substring
		check  func(t *testing.T, stdout string)
	}{
		{"list prints the suite in presentation order", []string{"list"}, 0, "",
			func(t *testing.T, stdout string) {
				if stdout != string(list) {
					t.Fatalf("stdout:\n%s\nwant:\n%s", stdout, list)
				}
			}},
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
			func(t *testing.T, _ string) { sameFile(t, "a.json", "a2.json") }},
		{"replay streams a trace",
			[]string{"replay", "-w", "racey", "-workers", "2", "-log", path("a.dplog"), "-trace", path("r.json")}, 0, "",
			func(t *testing.T, stdout string) {
				if evs := parse(t, "r.json"); !strings.Contains(stdout, fmt.Sprintf("trace: %d events", len(evs))) {
					t.Fatalf("%d events in the file; stdout:\n%s", len(evs), stdout)
				}
			}},
		{"record -prom writes metrics that lint clean", append(record, "-prom", path("m.prom")), 0, "",
			func(t *testing.T, _ string) {
				prom, err := os.ReadFile(path("m.prom"))
				if err != nil {
					t.Fatal(err)
				}
				if problems := dptrace.Promlint(string(prom)); len(problems) > 0 || len(prom) == 0 {
					t.Fatalf("%d bytes, problems: %v", len(prom), problems)
				}
			}},
		{"record -guest-profile", append(record, "-guest-profile", path("rec.pb"), "-o", path("p.dplog")), 0, "",
			match(`(?m)^guest profile: \d+ stacks`)},
		{"replay regenerates the record profile byte for byte",
			[]string{"replay", "-w", "racey", "-workers", "2", "-log", path("p.dplog"), "-guest-profile", path("rep.pb")}, 0, "",
			func(t *testing.T, _ string) { sameFile(t, "rec.pb", "rep.pb") }},
		{"an adaptive recording grows its controller",
			append([]string{"record", "-spares", "1", "-adaptive", "-min-spares", "1", "-max-spares", "4", "-o", path("ad.dplog")}, adaptive...), 0, "",
			match(`(?m)^  controller: [1-9]\d* grows, \d+ shrinks, [2-4] active spares`)},
		{"the adaptive log replays with every hash verified", append([]string{"replay", "-log", path("ad.dplog")}, adaptive...), 0, "",
			match(finalHash.String())},
		// docs/OBSERVABILITY.md's pair, as written there: the log names the
		// workers, so replay needs no -workers.
		{"record four workers", []string{"record", "-w", "pbzip", "-workers", "4", "-guest-profile", path("p4.pb"), "-o", path("pb4.dplog")}, 0, "", nil},
		{"replay takes the workers from the log",
			[]string{"replay", "-w", "pbzip", "-log", path("pb4.dplog"), "-guest-profile", path("q4.pb")}, 0, "",
			func(t *testing.T, _ string) { sameFile(t, "p4.pb", "q4.pb") }},
		{"replay -log alone takes the workload too", []string{"replay", "-log", path("pb4.dplog")}, 0, "",
			match(finalHash.String())},
		{"a flag that disagrees with the log is a usage error", []string{"replay", "-workers", "3", "-log", path("pb4.dplog")}, 2,
			"workers 3 disagrees with the log's 4", nil},
		{"flags that agree are accepted", []string{"replay", "-w", "pbzip", "-workers", "4", "-seed", "11", "-log", path("pb4.dplog")}, 0, "",
			match(finalHash.String())},
		// One plan rule: replay -log runs the plan a replay job's mode and
		// stride select, priced as verify prices it.
		{"verify prices the parallel and sparse plans", []string{"verify", "-w", "kvdb", "-parallel", "-stride", "3"}, 0, "",
			func(t *testing.T, stdout string) {
				for _, m := range verifyLine.FindAllStringSubmatch(stdout, -1) {
					planCycles[m[1]] = m[2]
				}
				if len(planCycles) != 2 {
					t.Fatalf("no parallel and sparse lines in:\n%s", stdout)
				}
			}},
		{"record kvdb", []string{"record", "-w", "kvdb", "-o", path("kv.dplog")}, 0, "", nil},
		{"replay -parallel runs the parallel plan", []string{"replay", "-parallel", "-log", path("kv.dplog")}, 0, "", samePlan("parallel")},
		{"replay -stride 3 runs the sparse plan", []string{"replay", "-stride", "3", "-log", path("kv.dplog")}, 0, "", samePlan("sparse")},
		{"replay takes one plan", []string{"replay", "-parallel", "-stride", "3", "-log", path("kv.dplog")}, 2,
			"replay takes -parallel or -stride N, not both", nil},
		{"a sparse replay needs stride 2", []string{"replay", "-stride", "1", "-log", path("kv.dplog")}, 2,
			"sparse replay requires stride >= 2", nil},
		{"so does verify's", []string{"verify", "-w", "kvdb", "-stride", "1"}, 2, "sparse replay requires stride >= 2", nil},
		{"a flag the command does not read is refused", []string{"record", "-w", "kvdb", "-stride", "2"}, 2,
			"record does not read -stride", nil},
		{"certified race-free sigping skips verification",
			append([]string{"record", "-verify-policy", "certified", "-guest-profile", path("certrec.pb"), "-o", path("cert.dplog")}, sigping...), 0, "",
			match(`(?m)^  certificate: race-free; verification skipped for all \d+ epochs`)},
		{"the certified log replays its profile byte for byte",
			append([]string{"replay", "-log", path("cert.dplog"), "-guest-profile", path("certrep.pb")}, sigping...), 0, "",
			func(t *testing.T, stdout string) {
				sameFile(t, "certrec.pb", "certrep.pb")
				if m := finalHash.FindStringSubmatch(stdout); m != nil {
					certHash = m[1]
				}
			}},
		{"a fully verified sigping recording", append([]string{"record", "-o", path("full.dplog")}, sigping...), 0, "",
			func(t *testing.T, stdout string) {
				if strings.Contains(stdout, "certificate:") {
					t.Fatalf("the default policy consulted the certificate:\n%s", stdout)
				}
			}},
		{"replays to the certified log's final hash", append([]string{"replay", "-log", path("full.dplog")}, sigping...), 0, "",
			func(t *testing.T, stdout string) {
				if m := finalHash.FindStringSubmatch(stdout); m == nil || certHash == "" || m[1] != certHash {
					t.Fatalf("certified log replayed to %q; stdout:\n%s", certHash, stdout)
				}
			}},
		{"certified racey keeps full verification", append(record, "-verify-policy", "certified"), 0, "",
			match(`(?m)^  certificate: possibly-racy; full verification kept`)},
		{"removed flag", append(record, "-trace-window", "8"), 2, "flag provided but not defined: -trace-window", nil},
		{"workers over the limit", []string{"record", "-w", "aget", "-workers", "37"}, 2, "workers 37 is over the limit of 32", nil},
		{"a log header over the worker limit is refused", []string{"replay", "-log", path("wide.dplog")}, 2,
			"workers 5000 is over the limit of 32", nil},
		{"log inspect reads the section table", []string{"log", "inspect", "-log", path("a.dplog")}, 0, "",
			func(t *testing.T, stdout string) {
				match(`dplog v6`, `(?m)^sections: +[1-9]`, `(?m)^index: +ok`, `(?m)^ +total +\d+ +\d+ +\d+\.\d+$`,
					`(?m)^ +0 .* [1-9]\d* slices, \d+ syscalls, \d+ signals, [1-9]\d* sync ops$`)(t, stdout)
				if strings.Contains(stdout, "ERROR") {
					t.Errorf("damaged section bodies:\n%s", stdout)
				}
			}},
		{"log inspect -epoch prints one section", []string{"log", "inspect", "-log", path("a.dplog"), "-epoch", "1"}, 0, "",
			func(t *testing.T, stdout string) {
				match(`(?m)^epoch 1: offset `, `boundary: start [0-9a-f]{16} -> end [0-9a-f]{16}`)(t, stdout)
				if strings.Contains(stdout, "total") {
					t.Errorf("-epoch still prints the totals row:\n%s", stdout)
				}
			}},
		{"log extract writes a range", []string{"log", "extract", "-log", path("a.dplog"), "-epochs", "1..2", "-o", path("sub.dplog")}, 0, "",
			match(`epochs 1\.\.2 .* \(2 sections\)`)},
		{"the range is a standalone log", []string{"log", "inspect", "-log", path("sub.dplog")}, 0, "",
			match(`(?m)^sections: +2$`, `(?m)^index: +ok`)},
		{"log extract cuts the corpus kvdb log to epochs 0..3",
			[]string{"log", "extract", "-log", filepath.Join("..", "..", "testdata", "logs", "kvdb.dplog"), "-epochs", "0..3", "-o", path("kvdb03.dplog")}, 0, "",
			match(`epochs 0\.\.3 .* \(4 sections\)`)},
		{"the range replays to the end of its epoch 3",
			[]string{"replay", "-w", "kvdb", "-workers", "2", "-scale", "1", "-seed", "11", "-log", path("kvdb03.dplog")}, 0, "",
			match(`replayed 4 epochs in \d+ simulated cycles; final hash 61b2a03959c293c5 verified`)},
		{"log inspect refuses a v5 log", []string{"log", "inspect", "-log", path("legacy.dplog")}, 1, logRefusal, nil},
		{"log upgrade refuses it too", []string{"log", "upgrade", "-log", path("legacy.dplog")}, 1, logRefusal, nil},
		{"log inspect salvages a cut log", []string{"log", "inspect", "-log", path("cut.dplog")}, 0, "",
			match(`(?m)^index: +RECOVERED .* 3 sections salvaged`)},
		{"log upgrade rewrites it in place", []string{"log", "upgrade", "-log", path("cut.dplog")}, 0, "",
			match(`dplog v6, 3 sections`)},
		{"the upgraded log inspects as v6", []string{"log", "inspect", "-log", path("cut.dplog")}, 0, "",
			match(`dplog v6`, `(?m)^index: +ok`)},
		{"store fsck refuses a chunk-layout store", []string{"store", "fsck", "-data", chunkStore}, 1, refusal, nil},
		{"store stats refuses it", []string{"store", "stats", "-data", chunkStore}, 1, refusal, nil},
		{"store gc refuses it", []string{"store", "gc", "-data", chunkStore}, 1, refusal, nil},
		{"serve refuses it", []string{"serve", "-listen", "127.0.0.1:0", "-data", chunkStore}, 1, refusal, nil},
		{"store upgrade is no command", []string{"store", "upgrade", "-data", chunkStore}, 2, `unknown command "store upgrade"`, nil},
		{"verify checks the guest profile under every plan",
			[]string{"verify", "-w", "fft", "-workers", "2", "-parallel", "-stride", "2", "-guest-profile", path("v.pb")}, 0, "",
			match(`(?m)^parallel replay: +OK`, `(?m)^sparse replay: +OK`, `(?m)^guest profile: +OK`, `(?m)^guest self-check: +OK`)},
		{"races names the racy address", []string{"races", "-w", "webserve-racy"}, 0, "",
			match(`(?m)^1 racy addresses:\n  race on \d+: `)},
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
