package server_test

import (
	"context"
	"testing"
	"time"

	"doubleplay/internal/server"
	"doubleplay/internal/store"
)

// BenchmarkRecordJob measures the daemon's record job in process: webserve
// at four workers, as serve-session records it, timed from Submit to the job
// turning done on a one-worker pool. An op is one whole job — queueing,
// recording, encoding the log, storing it as an object, and writing the
// job's trace, stats and manifest — and allocs/op count every goroutine's.
// Between ops, untimed, a GC collects the last op's recording, so every put
// writes its object rather than finding it already stored.
func BenchmarkRecordJob(b *testing.B) {
	s := benchServer(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		info, err := s.Submit(server.Spec{Kind: server.KindRecord, Workload: "webserve", Workers: 4, Spares: 4, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		if info = s.WaitJob(info.ID); info.State != server.StateDone {
			b.Fatalf("record job %s: %s", info.State, info.Error)
		}
		b.StopTimer()
		if _, err := s.Store().GC(store.Policy{MaxAge: time.Nanosecond}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// benchServer starts an in-process daemon with one worker, shut down when
// the benchmark ends.
func benchServer(b *testing.B) *server.Server {
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
	return s
}

// BenchmarkReplayJob measures the daemon's replay by id in process: one
// stored recording of each of serve-session's programs at four workers,
// replayed as a sequential and as a stride-4 job, each timed from Submit to
// the job turning done on a one-worker pool. An op is one whole job —
// queueing, opening the stored object, decoding its sections, building the
// program, replaying, and writing the job's trace, stats and manifest — and
// allocs/op count every goroutine's. Its B/op is the layer's side of
// serve-session's alloc_mb_per_op: pfscan and aget, whose worlds are the
// largest, show what a replay job no longer builds.
func BenchmarkReplayJob(b *testing.B) {
	s := benchServer(b)
	run := func(b *testing.B, sp server.Spec) {
		info, err := s.Submit(sp)
		if err != nil {
			b.Fatal(err)
		}
		if info = s.WaitJob(info.ID); info.State != server.StateDone {
			b.Fatalf("%s job %s: %s", sp.Kind, info.State, info.Error)
		}
	}
	for _, prog := range []string{"pfscan", "aget", "webserve", "kvdb"} {
		rec, err := s.Submit(server.Spec{Kind: server.KindRecord, Workload: prog, Workers: 4, Spares: 4, Seed: 11})
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
			b.Run(prog+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run(b, server.Spec{Kind: server.KindReplay, RecordingJob: rec.ID, Mode: c.mode, Stride: c.stride})
				}
			})
		}
	}
}
