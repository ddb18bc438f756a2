package dplog

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"doubleplay/internal/vm"
)

// -update regenerates the committed testdata fixtures from the current
// encoder. Golden tests then pin the on-disk bytes against docs/FORMAT.md.
var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// fixtureRecording is the hand-built deterministic recording every golden
// and fixture test encodes. Values are explicit (no PRNG) so the fixtures
// never depend on math/rand stream stability across Go releases.
func fixtureRecording() *Recording {
	sys := SyscallRecord{Tid: 1, Num: 7, Ret: -1}
	sys.Args = [6]vm.Word{1, 2, 3, 4, 5, 6}
	sys.Writes = []vm.MemWrite{{Addr: 4096, Data: []vm.Word{11, -22, 33}}}
	// A repetitive schedule long enough that epoch 0's section compresses;
	// the other epochs stay tiny, so they are stored raw — the fixtures
	// cover both flag states.
	var sched []Slice
	for i := 0; i < 64; i++ {
		sched = append(sched, Slice{Tid: i % 2, N: 250})
	}
	return &Recording{
		Program:    "fixture",
		Workers:    3,
		Seed:       -42,
		FinalHash:  0xfeedc0de,
		OutputHash: 0x0ddba11,
		Quantum:    250,
		Epochs: []*EpochLog{
			{
				Index:      0,
				StartHash:  0x100,
				EndHash:    0x101,
				CommitHash: 0x102,
				Targets:    []uint64{500, 750},
				Schedule:   sched,
				Syscalls:   []SyscallRecord{sys},
				SyncOrder:  []SyncRecord{{Tid: 0, Kind: vm.ObjLock, ID: 9}, {Tid: 1, Kind: vm.ObjLock, ID: 9}},
			},
			{
				Index:      1,
				Certified:  true,
				StartHash:  0x101,
				EndHash:    0x103,
				CommitHash: 0x104,
				Targets:    []uint64{1000},
				SyncOrder:  []SyncRecord{{Tid: 1, Kind: vm.ObjLock, ID: 9}, {Tid: 0, Kind: vm.ObjLock, ID: 9}},
			},
			{
				Index:      2,
				StartHash:  0x103,
				EndHash:    0x105,
				CommitHash: 0x106,
				Targets:    []uint64{1250},
				Schedule:   []Slice{{Tid: 1, N: 250}},
				Signals:    []SignalRecord{{Tid: 0, Retired: 1100, Sig: 15}},
			},
		},
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

// golden compares data against the committed fixture, rewriting it under
// -update.
func golden(t *testing.T, name string, data []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/dplog -run %s -update` to create it)", err, t.Name())
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s: encoding drifted from the committed golden bytes (%d vs %d bytes); if the format change is intentional, update docs/FORMAT.md and regenerate with -update", name, len(data), len(want))
	}
}

// TestGoldenV6Raw pins the uncompressed v6 encoding byte-for-byte: every
// byte of this fixture is described by docs/FORMAT.md.
func TestGoldenV6Raw(t *testing.T) {
	data := MarshalBytesWith(fixtureRecording(), EncodeOptions{})
	golden(t, "v6_raw.dplog", data)
	got, err := UnmarshalBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(fixtureRecording())) {
		t.Fatal("golden v6 raw fixture does not decode to the fixture recording")
	}
}

// TestGoldenV6Compressed pins that a committed compressed log decodes
// correctly. DEFLATE output may differ across Go releases, so this golden
// asserts decode equivalence, not byte-identical re-encoding.
func TestGoldenV6Compressed(t *testing.T) {
	if *update {
		golden(t, "v6_comp.dplog", MarshalBytes(fixtureRecording()))
	}
	data, err := os.ReadFile(goldenPath("v6_comp.dplog"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(fixtureRecording())) {
		t.Fatal("golden v6 compressed fixture does not decode to the fixture recording")
	}
	rd, err := OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Recovered() {
		t.Fatal("compressed fixture opened recovered")
	}
	compressed := 0
	for _, s := range rd.Sections() {
		if s.Compressed() {
			compressed++
		}
	}
	if compressed == 0 {
		t.Fatal("compressed fixture has no compressed sections")
	}
}

// refusedEverywhere checks that every entry point, Upgrade included,
// refuses data with ErrBadVersion, and that the error names the last build
// that converts a retired flat layout exactly when retired is set.
func refusedEverywhere(t *testing.T, name string, data []byte, retired bool) {
	t.Helper()
	for how, open := range map[string]func() error{
		"UnmarshalBytes":  func() error { _, err := UnmarshalBytes(data); return err },
		"Unmarshal":       func() error { _, err := Unmarshal(bytes.NewReader(data)); return err },
		"OpenReaderBytes": func() error { _, err := OpenReaderBytes(data); return err },
		"OpenReader":      func() error { _, err := OpenReader(bytes.NewReader(data), int64(len(data))); return err },
		"Upgrade":         func() error { _, _, err := Upgrade(data); return err },
	} {
		err := open()
		named := err != nil && strings.Contains(err.Error(), "of commit "+lastConverter+", the last build that converts")
		if !errors.Is(err, ErrBadVersion) || named != retired {
			t.Fatalf("%s %s: err = %v, want ErrBadVersion naming the last converter: %v", name, how, err, retired)
		}
	}
}

// TestLegacyFixturesDecode pins what becomes of the committed v4 and v5
// files, written by the retired flat encoders: the header decodes far
// enough to read their version, and every entry point refuses them with
// ErrBadVersion naming the last build that converts them.
func TestLegacyFixturesDecode(t *testing.T) {
	for _, name := range []string{"v4.dplog", "v5.dplog"} {
		data, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		refusedEverywhere(t, name, data, true)
	}
}

// TestV4StreamDecodes pins the refusal of a hand-built pre-certification
// v4 stream (no per-epoch flags varint): its version is read and named
// retired, as with the committed fixtures. A v6 log relabelled v3 or v7 is
// refused too, with a plain ErrBadVersion that names no converter.
func TestV4StreamDecodes(t *testing.T) {
	e := encoder{b: []byte(magic)}
	e.u(4)
	e.str("legacy")
	e.u(2)     // workers
	e.i(7)     // seed
	e.u(1)     // epochs
	e.u(0xabc) // final hash
	e.u(0xdef) // output hash
	e.u(3)     // epoch index (no flags varint in v4)
	e.u(0x11)  // start hash
	e.u(0x22)  // end hash
	e.u(0x33)  // commit hash
	e.u(1)     // targets
	e.u(40)    //   target[0]
	e.u(1)     // slices
	e.u(0)     //   tid
	e.u(40)    //   n
	e.u(0)     // syscalls
	e.u(0)     // signals
	e.u(1)     // sync ops
	e.u(1)     //   tid
	e.u(0)     //   kind
	e.i(9)     //   id
	refusedEverywhere(t, "v4 stream", e.b, true)
	for _, ver := range []byte{3, 7} {
		data := MarshalBytes(fixtureRecording())
		data[len(magic)] = ver
		refusedEverywhere(t, fmt.Sprintf("v%d", ver), data, false)
	}
}

// countingReaderAt counts the bytes actually requested from the
// underlying storage — the deterministic stand-in for seek latency.
type countingReaderAt struct {
	data []byte
	n    int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := bytes.NewReader(c.data).ReadAt(p, off)
	c.n += int64(n)
	return n, err
}

// bigRecording synthesises a recording with many non-trivial epochs.
func bigRecording(t testing.TB, epochs int) *Recording {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rec := randomRecording(rng)
	rec.Epochs = rec.Epochs[:0]
	for i := 0; i < epochs; i++ {
		ep := &EpochLog{Index: i, StartHash: uint64(i), EndHash: uint64(i + 1)}
		for s := 0; s < 40; s++ {
			ep.Schedule = append(ep.Schedule, Slice{Tid: rng.Intn(4), N: uint64(rng.Intn(1000))})
			ep.SyncOrder = append(ep.SyncOrder, SyncRecord{Tid: rng.Intn(4), Kind: vm.ObjLock, ID: vm.Word(rng.Intn(8))})
		}
		rec.Epochs = append(rec.Epochs, ep)
	}
	return rec
}

// TestSeekReadsOnlyOneSection is the acceptance check for random access:
// seeking one epoch out of many touches the header, footer, index, and
// exactly one section — a small fraction of the file.
func TestSeekReadsOnlyOneSection(t *testing.T) {
	rec := bigRecording(t, 64)
	data := MarshalBytes(rec)
	src := &countingReaderAt{data: data}
	rd, err := OpenReader(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Recovered() {
		t.Fatal("expected an intact v6 reader")
	}
	openCost := src.n
	ep, err := rd.Seek(63)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeEpoch(ep), normalizeEpoch(rec.Epochs[63])) {
		t.Fatal("seeked epoch differs from the recorded one")
	}
	seekCost := src.n - openCost
	if max := int64(len(data)) / 4; openCost+seekCost >= max {
		t.Fatalf("seek touched %d+%d bytes of a %d-byte log; want < %d", openCost, seekCost, len(data), max)
	}
	if _, err := rd.Seek(64); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("Seek(64) = %v, want ErrNoEpoch", err)
	}
}

func normalizeEpoch(ep *EpochLog) *EpochLog {
	r := &Recording{Epochs: []*EpochLog{ep}}
	return normalize(r).Epochs[0]
}

// TestReaderMatchesUnmarshal pins that the random-access path and the
// sequential decoder agree on every epoch, compressed and raw.
func TestReaderMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rec := randomRecording(rng)
		for _, opt := range []EncodeOptions{{}, {Compress: true}} {
			data := MarshalBytesWith(rec, opt)
			seq, err := UnmarshalBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := OpenReaderBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			full, err := rd.Recording()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalize(full), normalize(seq)) {
				t.Fatalf("trial %d compress=%v: reader and sequential decode disagree", trial, opt.Compress)
			}
			for _, ep := range rec.Epochs {
				got, err := rd.Seek(ep.Index)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(normalizeEpoch(got), normalizeEpoch(ep)) {
					t.Fatalf("trial %d: Seek(%d) mismatch", trial, ep.Index)
				}
			}
		}
	}
}

// TestIndexRecovery truncates a log mid-section and checks the reader
// recovers every section before the cut.
func TestIndexRecovery(t *testing.T) {
	rec := bigRecording(t, 16)
	data := MarshalBytes(rec)
	rd, err := OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside section 9: everything before it must survive.
	cut := rd.Sections()[9].Offset + 3
	trunc, err := OpenReaderBytes(data[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if !trunc.Recovered() {
		t.Fatal("truncated log did not trigger a recovery scan")
	}
	if got := trunc.NumSections(); got != 9 {
		t.Fatalf("recovered %d sections, want 9", got)
	}
	for i := 0; i < 9; i++ {
		ep, err := trunc.EpochAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeEpoch(ep), normalizeEpoch(rec.Epochs[i])) {
			t.Fatalf("recovered epoch %d differs", i)
		}
	}
	// Flipping a payload byte of a middle section stops recovery there.
	bad := append([]byte(nil), data[:cut]...)
	bad[rd.Sections()[4].Offset+8] ^= 0xff
	dam, err := OpenReaderBytes(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !dam.Recovered() || dam.NumSections() >= 9 {
		t.Fatalf("damaged log: recovered=%v sections=%d", dam.Recovered(), dam.NumSections())
	}
}

// TestWriteRange pins the epoch-range extraction: the subset file is a
// standalone v6 log whose sections are byte-identical to the source's.
func TestWriteRange(t *testing.T) {
	rec := bigRecording(t, 12)
	data := MarshalBytes(rec)
	rd, err := OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rd.WriteRange(&buf, 3, 5); err != nil {
		t.Fatal(err)
	}
	sub, err := OpenReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Recovered() {
		t.Fatal("subset log should be an intact v6 file")
	}
	if got := sub.NumSections(); got != 3 {
		t.Fatalf("subset has %d sections, want 3", got)
	}
	for i, want := range rd.Sections()[3:6] {
		got := sub.Sections()[i]
		if got.Epoch != want.Epoch || got.Stored != want.Stored || got.Raw != want.Raw ||
			got.Flags != want.Flags || got.CRC != want.CRC {
			t.Fatalf("subset section %d metadata differs: %+v vs %+v", i, got, want)
		}
		ep, err := sub.Seek(want.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeEpoch(ep), normalizeEpoch(rec.Epochs[want.Epoch])) {
			t.Fatalf("subset epoch %d differs", want.Epoch)
		}
	}
	if sub.Header().Program != rec.Program || sub.Header().Quantum != rec.Quantum {
		t.Fatal("subset header lost the source metadata")
	}
	if err := rd.WriteRange(&bytes.Buffer{}, 10, 14); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("out-of-range WriteRange = %v, want ErrNoEpoch", err)
	}
}

// TestUpgrade pins the index repair: an intact v6 log passes through
// untouched, and a damaged one rewrites to an intact file of its
// surviving sections.
func TestUpgrade(t *testing.T) {
	up := MarshalBytes(fixtureRecording())
	same, changed, err := Upgrade(up)
	if err != nil || changed {
		t.Fatalf("Upgrade(v6): changed=%v err=%v", changed, err)
	}
	if !bytes.Equal(same, up) {
		t.Fatal("Upgrade of an intact v6 log must pass bytes through")
	}
	// A truncated v6 log upgrades to an intact file holding the survivors.
	big := MarshalBytes(bigRecording(t, 8))
	rd, _ := OpenReaderBytes(big)
	cut := rd.Sections()[5].Offset
	repaired, changed, err := Upgrade(big[:cut])
	if err != nil || !changed {
		t.Fatalf("Upgrade(truncated): changed=%v err=%v", changed, err)
	}
	fixed, err := OpenReaderBytes(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Recovered() || fixed.NumSections() != 5 {
		t.Fatalf("repaired log: recovered=%v sections=%d", fixed.Recovered(), fixed.NumSections())
	}
}

func TestParseEpochRange(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int
		ok     bool
	}{
		{"0", 0, 0, true},
		{"7", 7, 7, true},
		{"2..5", 2, 5, true},
		{"3..3", 3, 3, true},
		{"", 0, 0, false},
		{"5..2", 0, 0, false},
		{"..4", 0, 0, false},
		{"4..", 0, 0, false},
		{"1..2..3", 0, 0, false},
		{"-1", 0, 0, false},
		{"x", 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, err := ParseEpochRange(c.in)
		if c.ok != (err == nil) || (c.ok && (lo != c.lo || hi != c.hi)) {
			t.Fatalf("ParseEpochRange(%q) = %d,%d,%v; want %d,%d ok=%v", c.in, lo, hi, err, c.lo, c.hi, c.ok)
		}
	}
}
