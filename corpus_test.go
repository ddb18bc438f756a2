package doubleplay_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/replay"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// corpusDir holds the log corpus: <name>.dplog, a log the recorder wrote,
// beside <name>.golden, the build spec its program is rebuilt from and
// what every replay of it reproduced when it was added. A file there is
// never rewritten; a change that moves log bytes on purpose adds a file.
var corpusDir = filepath.Join("testdata", "logs")

// corpusSpec names the workload build a log replays against. A v6 header
// names the program, not its scale, so the golden carries the build.
type corpusSpec struct {
	Workload       string
	Workers, Scale int
	Seed           int64
}

func (s corpusSpec) line() string {
	return fmt.Sprintf("spec workload=%s workers=%d scale=%d seed=%d", s.Workload, s.Workers, s.Scale, s.Seed)
}

func parseSpec(line string) (s corpusSpec, err error) {
	_, err = fmt.Sscanf(line, "spec workload=%s workers=%d scale=%d seed=%d", &s.Workload, &s.Workers, &s.Scale, &s.Seed)
	return s, err
}

// corpusEntry is how -update records a log the corpus lacks: the build,
// the recorder options, and how many epochs of the recording the log
// keeps (0: all of them). A cut log is a whole recording of its first
// keep epochs — the same sections, under a header whose final and output
// hashes are the last kept epoch's — so it replays by every plan.
type corpusEntry struct {
	name string
	spec corpusSpec
	opt  core.Options
	keep int
}

// corpusEntries are one log per builtin workload, at TestRecordPinned's
// options, then the pinned shapes that replay by other paths: a certified
// log with signals, re-run and adopted epochs, and epochs that grew. The
// four I/O guests and the long shapes are cut to keep the corpus small.
func corpusEntries() []corpusEntry {
	cut := map[string]int{"pfscan": 6, "aget": 1, "webserve": 6, "webserve-racy": 6}
	var out []corpusEntry
	for _, name := range workloads.Names() {
		out = append(out, corpusEntry{name: name, spec: corpusSpec{name, 2, 1, 11},
			opt: core.Options{SpareCPUs: 2}, keep: cut[name]})
	}
	return append(out,
		corpusEntry{name: "sigping-certified", spec: corpusSpec{"sigping", 2, 1, 11},
			opt: core.Options{SpareCPUs: 2, VerifyPolicy: core.VerifyCertified}},
		corpusEntry{name: "webserve-racy-rerun", spec: corpusSpec{"webserve-racy", 3, 1, 3},
			opt: core.Options{SpareCPUs: 3, EpochCycles: 6000, DisableSyncEnforcement: true}, keep: 6},
		corpusEntry{name: "webserve-racy-growth", spec: corpusSpec{"webserve-racy", 3, 1, 3},
			opt: core.Options{SpareCPUs: 3, EpochGrowth: 1.5}, keep: 4},
	)
}

// TestCorpusReplays replays every log in testdata/logs against the program
// its golden's spec rebuilds, and records nothing. Each log replays by
// every plan — sequential, epoch-parallel and sparse from the checkpoints
// one sequential pass rebuilds, and by stride — over both Sources, and
// once more with every epoch stepped an instruction at a time. All of them
// must agree, and what they reproduce must be the golden: the header's
// hashes, every boundary's cycle and hash, each plan's cost and trace,
// and the guest profile. -update records the logs corpusEntries names
// that are missing, and writes a golden only where there is none.
func TestCorpusReplays(t *testing.T) {
	if *update {
		for _, e := range corpusEntries() {
			addCorpusLog(t, e)
		}
	}
	for _, e := range corpusEntries() {
		if _, err := os.Stat(filepath.Join(corpusDir, e.name+".dplog")); err != nil {
			t.Fatalf("%v (run `go test . -run TestCorpusReplays -update` to record it)", err)
		}
	}
	logs, err := filepath.Glob(filepath.Join(corpusDir, "*.dplog"))
	if err != nil {
		t.Fatal(err)
	}
	covered, shapes := map[string]bool{}, map[string]int{}
	for _, path := range logs {
		name := strings.TrimSuffix(filepath.Base(path), ".dplog")
		golden, err := os.ReadFile(strings.TrimSuffix(path, ".dplog") + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := parseSpec(string(golden))
		if err != nil {
			t.Fatalf("%s.golden: %v", name, err)
		}
		covered[spec.Workload] = true
		countShapes(shapes, string(golden))
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := corpusFacts(spec, data)
			if err != nil {
				t.Fatal(err)
			}
			checkCorpusGolden(t, string(golden), got)
		})
	}
	for _, name := range workloads.Names() {
		if !covered[name] {
			t.Errorf("no log in %s replays workload %s", corpusDir, name)
		}
	}
	for _, shape := range []string{"adopted", "rerun", "certified", "signals", "grown"} {
		if shapes[shape] == 0 {
			t.Errorf("no log in %s was recorded with %s epochs", corpusDir, shape)
		}
	}
}

// countShapes adds up the recorder's note in a golden: how many of the
// log's epochs were adopted, re-run, certified, delivered signals or grew.
func countShapes(shapes map[string]int, golden string) {
	for _, l := range strings.Split(golden, "\n") {
		if !strings.HasPrefix(l, "recorded ") {
			continue
		}
		for _, f := range strings.Fields(l)[1:] {
			k, v, _ := strings.Cut(f, "=")
			n, _ := strconv.Atoi(v)
			shapes[k] += n
		}
	}
}

// checkCorpusGolden compares the replay facts with the golden's lines past
// the spec and the recorder's note, naming the first line that moved.
func checkCorpusGolden(t *testing.T, golden, got string) {
	t.Helper()
	var want []string
	for _, l := range strings.Split(strings.TrimSuffix(golden, "\n"), "\n") {
		if !strings.HasPrefix(l, "spec ") && !strings.HasPrefix(l, "recorded ") {
			want = append(want, l)
		}
	}
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for i := range max(len(want), len(have)) {
		w, h := "(none)", "(none)"
		if i < len(want) {
			w = want[i]
		}
		if i < len(have) {
			h = have[i]
		}
		if w != h {
			t.Fatalf("replay moved from the golden:\n got  %s\n want %s", h, w)
		}
	}
}

// corpusFacts replays data against spec's program by every plan over both
// Sources and by a stepped pass, requires them to agree, and renders what
// they reproduced as the golden's lines past the spec.
func corpusFacts(spec corpusSpec, data []byte) (string, error) {
	wl := workloads.Get(spec.Workload)
	if wl == nil {
		return "", fmt.Errorf("no workload %q", spec.Workload)
	}
	prog := wl.Program(workloads.Params{Workers: spec.Workers, Scale: spec.Scale, Seed: spec.Seed})
	rec, err := dplog.UnmarshalBytes(data)
	if err != nil {
		return "", err
	}
	rd, err := dplog.OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return "", err
	}
	h := rd.Header()
	var out strings.Builder
	fmt.Fprintf(&out, "header version=%d program=%s workers=%d seed=%d quantum=%d epochs=%d final=%016x output=%016x\n",
		h.Version, h.Program, h.Workers, h.Seed, h.Quantum, rd.NumSections(), h.FinalHash, h.OutputHash)

	ctx := context.Background()
	var first, prof string
	for _, src := range []replay.Source{replay.FromRecording(rec), replay.FromReader(rd)} {
		var facts strings.Builder
		bs, err := replay.CheckpointsFrom(ctx, prog, src, nil)
		if err != nil {
			return "", fmt.Errorf("rebuilding checkpoints: %w", err)
		}
		for _, b := range bs {
			fmt.Fprintf(&facts, "boundary %d cycle=%d hash=%016x\n", b.Index, b.Cycle, b.Hash)
		}
		for _, p := range []struct {
			name string
			opt  replay.Options
		}{
			{"sequential", replay.Options{}},
			{"epoch-parallel", replay.Options{Boundaries: bs, CPUs: 2}},
			{"sparse", replay.Options{Boundaries: replay.Thin(bs, 3), CPUs: 2}},
			{"stride", replay.Options{Stride: 3, CPUs: 2}},
		} {
			var js bytes.Buffer
			sink, gp := trace.NewStreamSink(&js, 0), profile.NewProfile(prog.Name)
			p.opt.Trace, p.opt.Profile = sink, gp
			res, err := replay.Run(ctx, prog, src, p.opt)
			if err != nil {
				return "", fmt.Errorf("%s replay: %w", p.name, err)
			}
			if err := sink.Close(); err != nil {
				return "", err
			}
			fmt.Fprintf(&facts, "plan %s cycles=%d final=%016x trace=%x\n", p.name, res.Cycles, res.FinalHash, sha256.Sum256(js.Bytes()))
			if pb := fmt.Sprintf("%x", sha256.Sum256(gp.MarshalPprof())); prof == "" {
				prof = pb
			} else if pb != prof {
				return "", fmt.Errorf("%s replay profiles %s, another plan %s", p.name, pb, prof)
			}
		}
		for _, b := range bs {
			b.CP.Release()
		}
		if first == "" {
			first = facts.String()
		} else if facts.String() != first {
			return "", fmt.Errorf("the two Sources replay differently:\n%s\nand\n%s", first, facts.String())
		}
	}
	out.WriteString(first)
	fmt.Fprintf(&out, "profile sha256=%s\n", prof)
	if err := steppedCorpusReplay(prog, rec, first, prof); err != nil {
		return "", err
	}
	return out.String(), nil
}

// steppedCorpusReplay replays rec from reset with every epoch's Stepper
// drained by Step calls under a guest profiler, and holds it to the
// boundaries and profile the plans reproduced.
func steppedCorpusReplay(prog *vm.Program, rec *dplog.Recording, facts, prof string) error {
	m := vm.NewMachine(prog, nil, nil)
	gp := profile.New(prog)
	gp.Attach(m)
	var cycles int64
	for i, ep := range rec.Epochs {
		if !strings.Contains(facts, fmt.Sprintf("boundary %d cycle=%d hash=%016x\n", i, cycles, m.StateHash())) {
			return fmt.Errorf("stepped replay: epoch %d starts at cycle %d in state %016x, which no plan reached", i, cycles, m.StateHash())
		}
		st, err := replay.NewStepper(m, ep, rec.Quantum, nil)
		if err != nil {
			return fmt.Errorf("stepped replay: epoch %d: %w", i, err)
		}
		for !st.Done() {
			if _, err := st.Step(); err != nil {
				return fmt.Errorf("stepped replay: epoch %d: %w", i, err)
			}
		}
		cycles += st.Cycles()
	}
	if h := m.StateHash(); h != rec.FinalHash {
		return fmt.Errorf("stepped replay ends in %016x, the log says %016x", h, rec.FinalHash)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(gp.Snapshot().MarshalPprof())); got != prof {
		return fmt.Errorf("stepped replay profiles %s, the plans %s", got, prof)
	}
	m.Mem.Release()
	return nil
}

// addCorpusLog records e's log and writes its golden when the corpus lacks
// the log; it writes over no file.
func addCorpusLog(t *testing.T, e corpusEntry) {
	t.Helper()
	path := filepath.Join(corpusDir, e.name)
	if _, err := os.Stat(path + ".dplog"); !os.IsNotExist(err) {
		return
	}
	data, golden, err := recordCorpusLog(e)
	if err == nil {
		err = writeNew(path+".golden", golden)
	}
	if err == nil {
		err = writeNew(path+".dplog", data)
	}
	if err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
}

// recordCorpusLog records e, cuts the recording to e.keep epochs, and
// returns its encoding and its golden: the spec, a note of what the
// recorder did in the kept epochs, and the replay facts. A log whose facts
// the recording's own boundaries and profile do not confirm is refused.
func recordCorpusLog(e corpusEntry) (data, golden []byte, err error) {
	bt := workloads.Get(e.spec.Workload).Build(workloads.Params{Workers: e.spec.Workers, Scale: e.spec.Scale, Seed: e.spec.Seed})
	opt := e.opt
	opt.Workers, opt.RecordCPUs, opt.Seed = e.spec.Workers, e.spec.Workers, e.spec.Seed
	opt.Profile = profile.NewProfile(bt.Prog.Name)
	res, err := core.Record(bt.Prog, bt.World, opt)
	if err != nil {
		return nil, nil, err
	}
	defer res.ReleaseCheckpoints()
	rec, keep := res.Recording, len(res.Recording.Epochs)
	if e.keep > 0 && e.keep < keep {
		keep = e.keep
		last := rec.Epochs[keep-1]
		rec.Epochs, rec.FinalHash, rec.OutputHash = rec.Epochs[:keep], last.EndHash, last.CommitHash
	}
	kinds := map[string]int{}
	for _, d := range res.Divergences {
		if d.Epoch < keep {
			kinds[d.Kind]++
		}
	}
	var certified, signals int
	for _, ep := range rec.Epochs {
		if ep.Certified {
			certified++
		}
		signals += len(ep.Signals)
	}
	grown, err := grownEpochs(e, rec)
	if err != nil {
		return nil, nil, err
	}
	note := fmt.Sprintf("recorded epochs=%d of=%d adopted=%d rerun=%d certified=%d signals=%d grown=%d sync_enforcement=%t\n",
		keep, res.Stats.Epochs, kinds["state"], kinds["input"], certified, signals, grown, !opt.DisableSyncEnforcement)
	data = dplog.MarshalBytes(rec)
	facts, err := corpusFacts(e.spec, data)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range res.Boundaries[:keep+1] {
		if !strings.Contains(facts, fmt.Sprintf("hash=%016x\n", b.Hash)) {
			return nil, nil, fmt.Errorf("replay never reaches the recorder's boundary %d (%016x)", b.Index, b.Hash)
		}
	}
	if keep == res.Stats.Epochs && !strings.Contains(facts, fmt.Sprintf("profile sha256=%x\n", sha256.Sum256(opt.Profile.MarshalPprof()))) {
		return nil, nil, fmt.Errorf("the replay profile is not the recorder's")
	}
	return data, []byte(e.spec.line() + "\n" + note + facts), nil
}

// grownEpochs counts, for a recording whose epochs grow, how many more
// epochs the same build recorded at a fixed length takes to retire what
// rec's epochs retired — zero when none grew.
func grownEpochs(e corpusEntry, rec *dplog.Recording) (int, error) {
	if e.opt.EpochGrowth <= 1 {
		return 0, nil
	}
	bt := workloads.Get(e.spec.Workload).Build(workloads.Params{Workers: e.spec.Workers, Scale: e.spec.Scale, Seed: e.spec.Seed})
	fixed := e.opt
	fixed.Workers, fixed.RecordCPUs, fixed.Seed, fixed.EpochGrowth = e.spec.Workers, e.spec.Workers, e.spec.Seed, 1
	ref, err := core.Record(bt.Prog, bt.World, fixed)
	if err != nil {
		return 0, err
	}
	defer ref.ReleaseCheckpoints()
	retired := func(ep *dplog.EpochLog) (n uint64) {
		for _, t := range ep.Targets {
			n += t
		}
		return n
	}
	want, n := retired(rec.Epochs[len(rec.Epochs)-1]), 0
	for _, ep := range ref.Recording.Epochs {
		if n++; retired(ep) >= want {
			break
		}
	}
	return n - len(rec.Epochs), nil
}

// writeNew creates path with data, failing when it already exists.
func writeNew(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
