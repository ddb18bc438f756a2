package main

// The `doubleplay store` group: offline tooling over a daemon's
// artifact store (-data, the same directory `doubleplay serve -data`
// writes).
//
//	doubleplay store stats -data ./dpdata [-json]     # recordings and space accounting
//	doubleplay store gc -data ./dpdata -max-age 720h  # retention sweep (honours pins)
//	doubleplay store fsck -data ./dpdata              # full integrity walk
//
// All three run against the store on disk and are safe to use while a
// daemon is down (post-drain maintenance) — gc and fsck take the same
// on-disk layout the daemon's /admin endpoints operate on. Exit codes
// follow the global convention: fsck exits 1 when it finds damage, gc
// and stats exit 1 only on I/O errors.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"doubleplay/internal/store"
)

// openStore opens the artifact store rooted at dir without a metrics
// registry (offline tooling has nowhere to publish).
func openStore(dir string) *store.Store {
	st, err := store.Open(dir, nil)
	check(err)
	return st
}

// printJSON renders any report as indented JSON on stdout.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	check(enc.Encode(v))
}

func storeStats(dir string, jsonOut bool) {
	rep, err := openStore(dir).Stats()
	check(err)
	if jsonOut {
		printJSON(rep)
		return
	}
	fmt.Printf("store:      %s\n", dir)
	fmt.Printf("recordings: %d, one object each\n", rep.Recordings)
	fmt.Printf("logical:    %d bytes across all recordings\n", rep.LogicalBytes)
	fmt.Printf("on disk:    %d bytes (objects compressed at rest in 64 KiB blocks)\n", rep.StoredBytes)
}

func storeGC(dir string, maxAge time.Duration, maxBytes int64, dryRun, jsonOut bool) {
	if maxAge < 0 || maxBytes < 0 {
		usageErr("store gc: -max-age and -max-bytes must be >= 0")
	}
	rep, err := openStore(dir).GC(store.Policy{MaxAge: maxAge, MaxBytes: maxBytes, DryRun: dryRun})
	check(err)
	if jsonOut {
		printJSON(rep)
		return
	}
	verb := "reclaimed"
	if dryRun {
		verb = "would reclaim"
	}
	fmt.Printf("gc: %d jobs (%d pinned), %d recordings live\n", rep.Jobs, rep.Pinned, rep.LiveRecordings)
	fmt.Printf("gc: %s %d refs, %d recording objects, %d stale temp files — %d bytes\n",
		verb, rep.RefsRemoved, rep.ChunksRemoved, rep.TempsRemoved, rep.BytesReclaimed)
}

func storeFsck(dir string, jsonOut bool) {
	rep, err := openStore(dir).Fsck()
	check(err)
	if jsonOut {
		printJSON(rep)
	} else {
		fmt.Printf("fsck: %d refs, %d recording objects checked\n", rep.Refs, rep.Recordings)
		if rep.OrphanRecordings > 0 {
			fmt.Printf("fsck: %d orphan recordings (unreferenced; gc reclaims them)\n", rep.OrphanRecordings)
		}
		if rep.StaleTemps > 0 {
			fmt.Printf("fsck: %d stale temp files (writes a crash cut off; gc removes them)\n", rep.StaleTemps)
		}
		for _, e := range rep.Errors {
			fmt.Printf("fsck: ERROR: %s\n", e)
		}
	}
	if !rep.OK() {
		fatal(fmt.Sprintf("fsck: store at %s has %d errors", dir, len(rep.Errors)))
	}
	if !jsonOut {
		fmt.Println("fsck: ok")
	}
}
