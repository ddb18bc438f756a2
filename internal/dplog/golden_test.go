package dplog_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/workloads"
)

// recordAll records every builtin workload once at 2 workers and returns
// the recordings in the suite's presentation order.
func recordAll(t testing.TB) (names []string, recs []*dplog.Recording) {
	t.Helper()
	for _, wl := range workloads.All() {
		recs = append(recs, recordOne(t, wl.Name))
		names = append(names, wl.Name)
	}
	return names, recs
}

func recordOne(t testing.TB, name string) *dplog.Recording {
	t.Helper()
	bt := workloads.Get(name).Build(workloads.Params{Workers: 2, Seed: 11})
	res, err := core.Record(bt.Prog, bt.World, core.Options{Workers: 2, SpareCPUs: 2, Seed: 11})
	if err != nil {
		t.Fatalf("record %s: %v", name, err)
	}
	return res.Recording
}

// recHash fingerprints a decoded recording by its canonical raw encoding,
// which docs/FORMAT.md makes byte-reproducible and which covers every
// field of every epoch.
func recHash(rec *dplog.Recording) string {
	sum := sha256.Sum256(dplog.MarshalBytesWith(rec, dplog.EncodeOptions{}))
	return fmt.Sprintf("%x", sum[:8])
}

// TestDecodeGolden pins what the read side makes of real logs: for every
// builtin workload, compressed and raw, a fingerprint of the decoded
// recording (through both Unmarshal and Reader.Recording) and the complete
// chunk enumeration. The table was generated before the decoders were
// merged into one; a decoder that drops, reorders or misreads a field, or
// a chunk split that moves by one byte, shows here as a diff.
func TestDecodeGolden(t *testing.T) {
	var got bytes.Buffer
	names, recs := recordAll(t)
	for i, rec := range recs {
		for _, compress := range []bool{true, false} {
			data := dplog.MarshalBytesWith(rec, dplog.EncodeOptions{Compress: compress})
			seq, err := dplog.UnmarshalBytes(data)
			if err != nil {
				t.Fatalf("%s compress=%v: %v", names[i], compress, err)
			}
			rd, err := dplog.OpenReaderBytes(data)
			if err != nil {
				t.Fatalf("%s compress=%v: %v", names[i], compress, err)
			}
			full, err := rd.Recording()
			if err != nil {
				t.Fatalf("%s compress=%v: %v", names[i], compress, err)
			}
			if recHash(seq) != recHash(rec) || recHash(full) != recHash(rec) {
				t.Fatalf("%s compress=%v: decode does not reproduce the recording", names[i], compress)
			}
			if !reflect.DeepEqual(rd.Header(), dplog.Header{
				Version: dplog.FormatVersion, Program: rec.Program, Workers: rec.Workers, Seed: rec.Seed,
				Sections: len(rec.Epochs), FinalHash: rec.FinalHash, OutputHash: rec.OutputHash, Quantum: rec.Quantum,
			}) {
				t.Fatalf("%s compress=%v: header %+v", names[i], compress, rd.Header())
			}
			chunks, err := rd.Chunks()
			if err != nil {
				t.Fatalf("%s compress=%v: %v", names[i], compress, err)
			}
			fmt.Fprintf(&got, "%s compress=%v bytes=%d epochs=%d rec=%s chunks=%d\n",
				names[i], compress, len(data), len(seq.Epochs), recHash(seq), len(chunks))
			for _, c := range chunks {
				fmt.Fprintf(&got, "  %s %d %d %d\n", c.Kind, c.Epoch, c.Offset, c.Len)
			}
		}
	}
	path := filepath.Join("testdata", "decode.golden")
	if *dplog.UpdateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/dplog -run TestDecodeGolden -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("decode golden differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("decode golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
