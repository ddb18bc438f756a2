// Webrecord: record a multithreaded web server under scripted client load,
// save the recording to disk, reload it, and replay it — the always-on
// production recording scenario from the paper's introduction. The replay
// log contains only timeslice schedules and syscall results, yet it
// reproduces the server's entire execution bit-exactly, including request
// interleaving across worker threads.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"doubleplay"
)

func main() {
	const workers = 4

	// The builtin "webserve" workload: a worker-pool server, a virtual
	// filesystem of documents, and scripted clients arriving over time.
	bt := doubleplay.BuildWorkload("webserve", doubleplay.WorkloadParams{
		Workers: workers,
		Seed:    2026,
	})
	info := doubleplay.DescribeWorkload("webserve")
	fmt.Printf("workload: %s — %s\n\n", info.Name, info.Desc)

	res, err := doubleplay.Record(bt.Prog, bt.World, doubleplay.RecordOptions{
		Workers:   workers,
		SpareCPUs: workers,
		Seed:      2026,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := res.Stats
	fmt.Printf("recorded %d epochs over %d instructions\n", s.Epochs, s.Retired)
	fmt.Printf("  %d syscalls (accepts, recvs, file reads, sends) captured\n", s.Syscalls)
	fmt.Printf("  %d lock-order events enforced during epoch-parallel execution\n", s.SyncEvents)
	fmt.Printf("  completion: %d cycles; divergences: %d\n\n", s.CompletionCycles, s.Divergences)

	// Persist and reload the log, as a production recorder would.
	var buf bytes.Buffer
	if err := doubleplay.SaveRecording(&buf, res.Recording); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized replay log: %d bytes (%.1f bytes per request served)\n",
		buf.Len(), float64(buf.Len())/480)
	rec, err := doubleplay.LoadRecording(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Replay the reloaded log against a freshly built program image. No
	// simulated OS, no clients — every input comes from the log.
	rep, err := doubleplay.Replay(context.Background(), bt.Prog, rec, doubleplay.ReplayOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplayed %d epochs: final state hash %016x matches the recording\n",
		rep.Epochs, rep.FinalHash)

	// And the fast path: all epochs replayed concurrently on host cores.
	par, err := doubleplay.Replay(context.Background(), bt.Prog, res.Recording,
		doubleplay.ReplayOptions{Boundaries: res.Boundaries, CPUs: workers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch-parallel replay finishes in %d simulated cycles (sequential: %d)\n",
		par.Cycles, rep.Cycles)
}
