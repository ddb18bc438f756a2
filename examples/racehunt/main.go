// Racehunt: demonstrate what happens when the recorded program has real
// data races. The thread-parallel and epoch-parallel executions disagree at
// epoch boundaries; DoublePlay detects each divergence, performs forward
// recovery (the epoch-parallel state becomes the truth), and the final log
// still replays deterministically. The happens-before detector then names
// the racing addresses — the debugging workflow the paper motivates.
package main

import (
	"context"
	"fmt"
	"log"

	"doubleplay"
)

func main() {
	const workers = 4

	fmt.Println("=== recording a racy program across 8 seeds ===")
	totalDiv, totalEpochs := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		bt := doubleplay.BuildWorkload("racey", doubleplay.WorkloadParams{
			Workers: workers,
			Seed:    seed,
		})
		res, err := doubleplay.Record(bt.Prog, bt.World, doubleplay.RecordOptions{
			Workers:   workers,
			SpareCPUs: workers,
			Seed:      seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		s := res.Stats
		totalDiv += s.Divergences
		totalEpochs += s.Epochs

		// The acid test: even after divergences and recoveries, the log
		// must replay to exactly the recorded final state.
		if _, err := doubleplay.Replay(context.Background(), bt.Prog, res.Recording, doubleplay.ReplayOptions{}); err != nil {
			log.Fatalf("seed %d: replay failed: %v", seed, err)
		}
		fmt.Printf("seed %d: %2d epochs, %d divergences (%d adopted, %d re-run), "+
			"%d cycles squashed — replay OK\n",
			seed, s.Epochs, s.Divergences, s.HashRecoveries, s.RerunRecoveries, s.SquashedCycles)
		for _, d := range res.Divergences {
			if d.Kind == "state" && len(d.Pages) > 0 {
				fmt.Printf("        forensics: epoch %d states disagree on memory page(s) %v\n",
					d.Epoch, d.Pages)
			}
		}
	}
	fmt.Printf("\ntotal: %d divergences over %d epochs, every recording replayed exactly\n\n",
		totalDiv, totalEpochs)

	fmt.Println("=== attributing the divergences: happens-before race detection ===")
	bt := doubleplay.BuildWorkload("racey", doubleplay.WorkloadParams{Workers: workers, Seed: 1})
	races, err := doubleplay.FindRaces(bt.Prog, bt.World)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d racy addresses found; first few:\n", len(races))
	for i, r := range races {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", len(races)-8)
			break
		}
		fmt.Printf("  %s\n", r)
	}

	fmt.Println("\n=== contrast: a race-free server shows zero divergences ===")
	bt = doubleplay.BuildWorkload("webserve", doubleplay.WorkloadParams{Workers: workers, Seed: 1})
	res, err := doubleplay.Record(bt.Prog, bt.World, doubleplay.RecordOptions{
		Workers: workers, SpareCPUs: workers, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("webserve: %d epochs, %d divergences\n", res.Stats.Epochs, res.Stats.Divergences)
	races, err = doubleplay.FindRaces(bt.Prog,
		doubleplay.BuildWorkload("webserve", doubleplay.WorkloadParams{Workers: workers, Seed: 1}).World)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("webserve: %d racy addresses (lock-protected stats, atomic work queues)\n", len(races))
}
