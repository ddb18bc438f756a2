package analyze_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"doubleplay/internal/analyze"
	"doubleplay/internal/core"
	"doubleplay/internal/guestgen"
	"doubleplay/internal/race"
	"doubleplay/internal/replay"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// corpusProg is one program the certifier is pinned and checked on, with
// a fresh world for each run of it.
type corpusProg struct {
	name  string
	prog  *vm.Program
	world func() *simos.World
	guest *guestgen.Guest // nil for a suite workload
}

// corpus is every workload at workers {2, 4} × scale {1, 2} and seed 1,
// then Generate and GenerateRacy over the seeds TestGeneratedGuests
// draws, 0 through 399.
func corpus() []corpusProg {
	var out []corpusProg
	for _, wl := range workloads.All() {
		for _, workers := range []int{2, 4} {
			for _, scale := range []int{1, 2} {
				p := workloads.Params{Workers: workers, Scale: scale, Seed: 1}
				build := wl.Build
				out = append(out, corpusProg{
					name:  fmt.Sprintf("%s w=%d scale=%d", wl.Name, workers, scale),
					prog:  build(p).Prog,
					world: func() *simos.World { return build(p).World },
				})
			}
		}
	}
	for i := 0; i < 400; i++ {
		data := guestData(uint64(i))
		for _, g := range []struct {
			name string
			gen  func([]byte) *guestgen.Guest
		}{{"generate", guestgen.Generate}, {"generate-racy", guestgen.GenerateRacy}} {
			guest := g.gen(data)
			out = append(out, corpusProg{
				name:  fmt.Sprintf("%s %d", g.name, i),
				prog:  guest.Prog,
				world: guest.World,
				guest: guest,
			})
		}
	}
	return out
}

// render is everything Run reports about a program, byte for byte: every
// finding with its location, and the certificate.
func render(t testing.TB, fs *analyze.Findings) []byte {
	t.Helper()
	list, err := json.Marshal(fs.List)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := json.Marshal(fs.Cert)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(list, '\n'), cert...)
}

// verdictLine is a program's line of testdata/verdicts.golden.
func verdictLine(t testing.TB, name string, fs *analyze.Findings) string {
	t.Helper()
	counts := map[analyze.Kind]int{}
	for _, f := range fs.List {
		counts[f.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k, n := range counts {
		kinds = append(kinds, fmt.Sprintf("%s:%d", k, n))
	}
	sort.Strings(kinds)
	return fmt.Sprintf("%s status=%s candidates=%d kinds=%s sha=%x",
		name, fs.Cert.Status, fs.Cert.Candidates, strings.Join(kinds, ","), sha256.Sum256(render(t, fs)))
}

// TestVerdictsUnchanged pins the analyzer's whole output on the corpus: a
// refactor of internal/analyze must leave every line of
// testdata/verdicts.golden as it is.
func TestVerdictsUnchanged(t *testing.T) {
	var got bytes.Buffer
	for _, p := range corpus() {
		fmt.Fprintln(&got, verdictLine(t, p.name, analyze.Run(p.prog)))
	}
	path := filepath.Join("testdata", "verdicts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analyze -run TestVerdictsUnchanged -update` to create it)", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gl {
		if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("verdict changed, first at line %d:\n got  %s\n want %s",
				i+1, gl[i], bytes.Join(wl[i:min(i+1, len(wl))], nil))
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("verdict table has %d lines, golden %d", len(gl), len(wl))
	}
}

// TestRunDeterministic: two analyses of one program render identically.
func TestRunDeterministic(t *testing.T) {
	for _, p := range corpus() {
		if a, b := render(t, analyze.Run(p.prog)), render(t, analyze.Run(p.prog)); !bytes.Equal(a, b) {
			t.Errorf("%s: two runs differ:\n%s\n%s", p.name, a, b)
		}
	}
}

// guestData returns the generator input for seed, as TestGeneratedGuests
// draws it.
func guestData(seed uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, seed*0x9e3779b97f4a7c15+1)
}

// checkSound holds a certificate to the dynamic detector: a program
// certified race-free must show no race when race.Find runs it in world.
// It reports whether the program certified.
func checkSound(t testing.TB, name string, fs *analyze.Findings, world *simos.World) bool {
	t.Helper()
	if !fs.Cert.RaceFree() {
		return false
	}
	races, err := race.Find(fs.Prog, world)
	if err != nil {
		t.Fatalf("%s: certified race-free, but the detector cannot run it: %v", name, err)
	}
	if len(races) > 0 {
		t.Errorf("%s: certified race-free, yet the detector finds %d race(s), first %s", name, len(races), races[0])
	}
	return true
}

// TestCertificateSound checks every certificate on the corpus against
// race.Find, the ground truth: Guest.Disciplined is not, since a guest
// with one worker cannot race however it touches the shared word.
func TestCertificateSound(t *testing.T) {
	var progs, certified, genCertified int
	for _, p := range corpus() {
		progs++
		if checkSound(t, p.name, analyze.Run(p.prog), p.world()) {
			certified++
			if p.guest != nil {
				genCertified++
			}
		}
	}
	if certified == 0 {
		t.Fatal("nothing on the corpus certifies; the soundness check checks nothing")
	}
	t.Logf("%d of %d programs certify race-free (%d of them generated)", certified, progs, genCertified)
}

// TestCertifiedReplayClean records every corpus program that certifies
// race-free under VerifyCertified, so each epoch commits from the logged
// thread-parallel run with no epoch-parallel pass, and replays the log by
// every plan: sequential, epoch-parallel and sparse from the recorder's
// boundaries, from the boundaries one sequential pass rebuilds, and by
// stride. Every plan checks each epoch's start and end hash and the final
// hash; a certified epoch that misses its end state fails with
// replay.ErrCertViolated, which would make the certificate unsound.
//
// A program whose thread faults records and replays like any other: the
// fault retires, so a target says where it happened. The recording holds
// as many faulted threads as core.RunNative of the same program ends
// with; a race-free program faults alike on every schedule.
func TestCertifiedReplayClean(t *testing.T) {
	var certified, faulted, epochs int
	for _, p := range corpus() {
		if !analyze.Run(p.prog).Cert.RaceFree() {
			continue
		}
		certified++
		res, err := core.Record(p.prog, p.world(), core.Options{
			SpareCPUs: 2, Seed: 1, EpochCycles: 2000, VerifyPolicy: core.VerifyCertified,
		})
		if err != nil {
			t.Fatalf("%s: record: %v", p.name, err)
		}
		if st := res.Stats; st.VerifyFallback != "" || st.VerifySkipped != st.Epochs {
			t.Fatalf("%s: %d of %d epochs skipped verification (fallback %q)", p.name, st.VerifySkipped, st.Epochs, st.VerifyFallback)
		}
		native, err := core.RunNative(p.prog, p.world(), 2, 1, nil)
		if err != nil {
			t.Fatalf("%s: native run: %v", p.name, err)
		}
		if got, want := res.Stats.GuestFaults, len(native.Faults); got != want {
			t.Fatalf("%s: the recording holds %d guest faults, a native run %d", p.name, got, want)
		}
		if res.Stats.GuestFaults > 0 {
			faulted++
		}
		epochs += res.Stats.Epochs
		src := replay.FromRecording(res.Recording)
		rebuilt, err := replay.CheckpointsFrom(context.Background(), p.prog, src, nil)
		if err != nil {
			t.Fatalf("%s: rebuilding checkpoints: %v", p.name, err)
		}
		for i, b := range rebuilt {
			if b.Hash != res.Boundaries[i].Hash {
				t.Fatalf("%s: rebuilt boundary %d hash %016x, recorded %016x", p.name, i, b.Hash, res.Boundaries[i].Hash)
			}
		}
		for name, opt := range map[string]replay.Options{
			"sequential":             {},
			"epoch-parallel":         {Boundaries: res.Boundaries, CPUs: 2},
			"sparse":                 {Boundaries: replay.Thin(res.Boundaries, 3), CPUs: 2},
			"rebuilt epoch-parallel": {Boundaries: rebuilt, CPUs: 2},
			"stride":                 {Stride: 2, CPUs: 2},
		} {
			rep, err := replay.Run(context.Background(), p.prog, src, opt)
			if errors.Is(err, replay.ErrCertViolated) {
				t.Fatalf("%s: %s replay: certificate violated: %v", p.name, name, err)
			}
			if err != nil || rep.FinalHash != res.FinalHash {
				t.Fatalf("%s: %s replay: %v (final hash %016x, recorded %016x)", p.name, name, err, rep.FinalHash, res.FinalHash)
			}
		}
		for _, b := range rebuilt {
			b.CP.Release()
		}
		res.ReleaseCheckpoints()
	}
	if faulted == 0 || certified == faulted {
		t.Fatalf("of %d certified programs %d fault; the check needs both endings", certified, faulted)
	}
	t.Logf("%d certified programs, %d epochs, recorded and replayed by every plan; %d of them fault",
		certified, epochs, faulted)
}

// FuzzCertifySound points the soundness and determinism checks at
// generated guests: the Generate and the GenerateRacy guest the bytes
// describe each render identically on two runs, and certify race-free
// only if race.Find sees no race. The seeds include the guests whose
// race-candidate sites once came out in map order.
func FuzzCertifySound(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 3, 4, 5, 6, 7, 200, 244, 270, 284} {
		f.Add(guestData(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range []*guestgen.Guest{guestgen.Generate(data), guestgen.GenerateRacy(data)} {
			fs := analyze.Run(g.Prog)
			if a, b := render(t, fs), render(t, analyze.Run(g.Prog)); !bytes.Equal(a, b) {
				t.Fatalf("two runs differ:\n%s\n%s", a, b)
			}
			checkSound(t, "generated guest", fs, g.World())
		}
	})
}
