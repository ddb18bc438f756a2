package server_test

import (
	"context"
	"testing"
	"time"

	"doubleplay/internal/server"
)

// BenchmarkReplayJob measures the daemon's replay by id in process: one
// stored recording of webserve at four workers, as serve-session records
// it, replayed as a sequential and as a stride-4 job, each timed from
// Submit to the job turning done on a one-worker pool. An op is one whole job — queueing, opening the stored object,
// decoding its sections, replaying, and writing the job's trace, stats
// and manifest — and allocs/op count every goroutine's.
func BenchmarkReplayJob(b *testing.B) {
	s, err := server.New(server.Config{DataDir: b.TempDir(), Workers: 1, QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	run := func(b *testing.B, sp server.Spec) {
		info, err := s.Submit(sp)
		if err != nil {
			b.Fatal(err)
		}
		if info = s.WaitJob(info.ID); info.State != server.StateDone {
			b.Fatalf("%s job %s: %s", sp.Kind, info.State, info.Error)
		}
	}
	rec, err := s.Submit(server.Spec{Kind: server.KindRecord, Workload: "webserve", Workers: 4, Spares: 4, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	if info := s.WaitJob(rec.ID); info.State != server.StateDone {
		b.Fatalf("record job %s: %s", info.State, info.Error)
	}
	for _, c := range []struct {
		name   string
		mode   string
		stride int
	}{
		{"sequential", "sequential", 0},
		{"stride4", "sparse", 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, server.Spec{Kind: server.KindReplay, RecordingJob: rec.ID, Mode: c.mode, Stride: c.stride})
			}
		})
	}
}
