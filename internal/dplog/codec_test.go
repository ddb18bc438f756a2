package dplog

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"doubleplay/internal/vm"
)

// randomRecording synthesises a structurally valid recording.
func randomRecording(rng *rand.Rand) *Recording {
	rec := &Recording{
		Program:    "prog-" + string(rune('a'+rng.Intn(26))),
		Workers:    rng.Intn(8),
		Seed:       rng.Int63() - rng.Int63(),
		FinalHash:  rng.Uint64(),
		OutputHash: rng.Uint64(),
		Quantum:    int64(rng.Intn(5000)),
	}
	for e := 0; e < rng.Intn(5); e++ {
		ep := &EpochLog{
			Index:     e,
			StartHash: rng.Uint64(),
			EndHash:   rng.Uint64(),
			Certified: rng.Intn(3) == 0,
		}
		for i := 0; i < rng.Intn(6); i++ {
			ep.Targets = append(ep.Targets, rng.Uint64()>>16)
		}
		for i := 0; i < rng.Intn(10); i++ {
			ep.Schedule = append(ep.Schedule, Slice{Tid: rng.Intn(8), N: uint64(rng.Intn(10000))})
		}
		for i := 0; i < rng.Intn(5); i++ {
			sr := SyscallRecord{
				Tid: rng.Intn(8),
				Num: vm.Word(rng.Intn(20)),
				Ret: vm.Word(rng.Int63() - rng.Int63()),
			}
			for a := range sr.Args {
				sr.Args[a] = vm.Word(rng.Intn(1000) - 500)
			}
			for wi := 0; wi < rng.Intn(3); wi++ {
				data := make([]vm.Word, rng.Intn(6))
				for d := range data {
					data[d] = vm.Word(rng.Int63() - rng.Int63())
				}
				sr.Writes = append(sr.Writes, vm.MemWrite{Addr: vm.Word(rng.Intn(1 << 20)), Data: data})
			}
			ep.Syscalls = append(ep.Syscalls, sr)
		}
		for i := 0; i < rng.Intn(8); i++ {
			ep.SyncOrder = append(ep.SyncOrder, SyncRecord{
				Tid:  rng.Intn(8),
				Kind: vm.ObjKind(rng.Intn(3)),
				ID:   vm.Word(rng.Intn(100) - 50),
			})
		}
		for i := 0; i < rng.Intn(4); i++ {
			ep.Signals = append(ep.Signals, SignalRecord{
				Tid:     rng.Intn(8),
				Retired: rng.Uint64() >> 20,
				Sig:     vm.Word(1 + rng.Intn(30)),
			})
		}
		ep.CommitHash = rng.Uint64()
		rec.Epochs = append(rec.Epochs, ep)
	}
	return rec
}

// TestQuickMarshalRoundTrip decodes random recordings back from their
// encoding, and holds Encode's one walk to the encoders it stands in for:
// the raw file MarshalBytesWith writes without compression, byte for
// byte, the counts of Sizes and the length of MarshalBytes.
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rec := randomRecording(rng)
		data := MarshalBytes(rec)
		got, err := UnmarshalBytes(data)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		raw, replay, full, compressed := rec.Encode()
		if wantReplay, wantFull := rec.Sizes(); !bytes.Equal(raw, MarshalBytesWith(rec, EncodeOptions{})) ||
			replay != wantReplay || full != wantFull || compressed != len(data) {
			t.Logf("Encode disagrees with MarshalBytesWith, Sizes or MarshalBytes")
			return false
		}
		return reflect.DeepEqual(normalize(rec), normalize(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps nil and empty slices to a canonical form for DeepEqual.
func normalize(r *Recording) *Recording {
	c := *r
	c.Epochs = make([]*EpochLog, len(r.Epochs))
	for i, ep := range r.Epochs {
		e := *ep
		if len(e.Targets) == 0 {
			e.Targets = nil
		}
		if len(e.Schedule) == 0 {
			e.Schedule = nil
		}
		if len(e.Syscalls) == 0 {
			e.Syscalls = nil
		}
		if len(e.SyncOrder) == 0 {
			e.SyncOrder = nil
		}
		if len(e.Signals) == 0 {
			e.Signals = nil
		}
		for j := range e.Syscalls {
			if len(e.Syscalls[j].Writes) == 0 {
				e.Syscalls[j].Writes = nil
			} else {
				for k := range e.Syscalls[j].Writes {
					if len(e.Syscalls[j].Writes[k].Data) == 0 {
						e.Syscalls[j].Writes[k].Data = nil
					}
				}
			}
		}
		c.Epochs[i] = &e
	}
	return &c
}

func TestBadMagicRejected(t *testing.T) {
	_, err := UnmarshalBytes([]byte("NOPE1234"))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadVersionRejected(t *testing.T) {
	data := MarshalBytes(&Recording{Program: "x"})
	data[4] = 99 // version varint follows the 4-byte magic
	_, err := UnmarshalBytes(data)
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rec *Recording
	for {
		rec = randomRecording(rng)
		if len(rec.Epochs) > 0 && len(rec.Epochs[0].Schedule) > 0 {
			break
		}
	}
	data := MarshalBytes(rec)
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := UnmarshalBytes(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(data))
		}
	}
}

func TestSizesAndCounts(t *testing.T) {
	rec := &Recording{
		Program: "sizes",
		Epochs: []*EpochLog{
			{
				Targets:   []uint64{10, 20},
				Schedule:  []Slice{{Tid: 0, N: 10}, {Tid: 1, N: 20}},
				Syscalls:  []SyscallRecord{{Tid: 0, Num: 3, Ret: 1}},
				SyncOrder: []SyncRecord{{Tid: 0, Kind: vm.ObjLock, ID: 7}},
			},
			{
				Schedule: []Slice{{Tid: 1, N: 5}},
			},
		},
	}
	if rec.Slices() != 3 || rec.SyscallCount() != 1 || rec.SyncOps() != 1 {
		t.Fatalf("counts: %d %d %d", rec.Slices(), rec.SyscallCount(), rec.SyncOps())
	}
	replaySize, fullSize := rec.Sizes()
	if replaySize <= 0 || fullSize <= replaySize {
		t.Fatalf("sizes: replay=%d full=%d", replaySize, fullSize)
	}
	// The full size is flat framing-free accounting; the v6 container adds
	// section frames, the index, and the footer on top of it. An
	// uncompressed encoding is therefore strictly larger than the full size,
	// and never by less than the fixed footer.
	if got := len(MarshalBytesWith(rec, EncodeOptions{})); got <= fullSize+footerLen {
		t.Fatalf("raw v6 encoding = %d bytes, want > full size %d + footer", got, fullSize)
	}
	// Certifying an epoch moves its sync order into the replay state.
	rec.Epochs[0].Certified = true
	grown, full := rec.Sizes()
	if grown <= replaySize || grown != rec.ReplaySize() {
		t.Fatalf("certified replay size %d (ReplaySize %d), want > uncertified %d", grown, rec.ReplaySize(), replaySize)
	}
	if full != fullSize {
		t.Fatalf("full size changed with certification: %d vs %d", full, fullSize)
	}
}

func TestSyscallRecordMatches(t *testing.T) {
	r := &SyscallRecord{Tid: 1, Num: 5, Args: [6]vm.Word{1, 2, 3, 4, 5, 6}}
	if !r.Matches(1, 5, [6]vm.Word{1, 2, 3, 4, 5, 6}) {
		t.Fatal("exact match failed")
	}
	if r.Matches(2, 5, r.Args) || r.Matches(1, 6, r.Args) || r.Matches(1, 5, [6]vm.Word{9}) {
		t.Fatal("mismatch accepted")
	}
}

func TestRecordingString(t *testing.T) {
	rec := &Recording{Program: "x"}
	if s := rec.String(); !strings.Contains(s, "x") || !strings.Contains(s, "0 epochs") {
		t.Fatalf("String() = %q", s)
	}
}

func TestMarshalToWriter(t *testing.T) {
	rec := randomRecording(rand.New(rand.NewSource(9)))
	var buf bytes.Buffer
	if err := Marshal(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != rec.Program || len(got.Epochs) != len(rec.Epochs) {
		t.Fatal("writer round trip mismatch")
	}
}
