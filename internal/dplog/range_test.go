package dplog_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/workloads"
)

// TestWriteRangeReplaysToItsEnd extracts epochs 0..3 of the committed
// kvdb log into a file and replays that file by every plan. A range that
// stops short of the recording's end must end where its last epoch ends —
// final and output hashes are epoch 3's end and commit hashes — or no plan
// reaches the final hash its header records.
func TestWriteRangeReplaysToItsEnd(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "logs", "kvdb.dplog"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := dplog.OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "range.dplog")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteRange(f, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ranged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dplog.OpenReaderBytes(ranged)
	if err != nil {
		t.Fatal(err)
	}
	last, err := src.Seek(3)
	if err != nil {
		t.Fatal(err)
	}
	if h := rd.Header(); rd.NumSections() != 4 || h.FinalHash != last.EndHash || h.OutputHash != last.CommitHash {
		t.Fatalf("range header: %d sections, final %016x, output %016x; epoch 3 ends in %016x, %016x",
			rd.NumSections(), h.FinalHash, h.OutputHash, last.EndHash, last.CommitHash)
	}

	prog := workloads.Get("kvdb").Build(workloads.Params{Workers: 2, Scale: 1, Seed: 11}).Prog
	ctx := context.Background()
	bs, err := replay.CheckpointsFrom(ctx, prog, replay.FromReader(rd), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, b := range bs {
			b.CP.Release()
		}
	}()
	for _, p := range []struct {
		name string
		opt  replay.Options
	}{
		{"sequential", replay.Options{}},
		{"epoch-parallel", replay.Options{Boundaries: bs, CPUs: 2}},
		{"sparse", replay.Options{Boundaries: replay.Thin(bs, 2), CPUs: 2}},
		{"stride", replay.Options{Stride: 2, CPUs: 2}},
	} {
		res, err := replay.Run(ctx, prog, replay.FromReader(rd), p.opt)
		if err != nil {
			t.Fatalf("%s replay of the range: %v", p.name, err)
		}
		if res.Epochs != 4 || res.FinalHash != last.EndHash {
			t.Fatalf("%s replay: %d epochs, final %016x", p.name, res.Epochs, res.FinalHash)
		}
	}
}
