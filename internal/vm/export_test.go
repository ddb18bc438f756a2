package vm

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
)

// BlockedLock is the status the external tests expect of a thread parked
// on a held lock.
const BlockedLock = blockedLock

// RaceEnabled tells the external allocation guards to skip.
const RaceEnabled = raceEnabled

// MaxFrames is the deepest call stack a thread may hold.
const MaxFrames = maxFrames

// DiffMachines describes the first difference between two machines,
// field by field — unexported ones, every hook and every thread field
// included — or returns "" when there is none. Memory compares by its
// words, Stats and PageCount. A Machine or Thread field it does not know
// is reported as a difference, so a new field cannot go unchecked.
func DiffMachines(a, b *Machine) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		var same bool
		switch name {
		case "Mem":
			if d := diffMemory(a, b); d != "" {
				return "Mem: " + d
			}
			same = true
		case "Threads":
			if len(a.Threads) != len(b.Threads) {
				return fmt.Sprintf("Threads: %d, %d", len(a.Threads), len(b.Threads))
			}
			for k := range a.Threads {
				if d := diffThreads(a.Threads[k], b.Threads[k]); d != "" {
					return fmt.Sprintf("thread %d: %s", k, d)
				}
			}
			same = true
		case "Locks":
			same = maps.Equal(a.Locks, b.Locks)
		case "Barriers":
			same = maps.EqualFunc(a.Barriers, b.Barriers, func(x, y *BarrierState) bool { return *x == *y })
		case "Hooks":
			hb := reflect.ValueOf(b.Hooks)
			for h, ha := 0, reflect.ValueOf(a.Hooks); h < ha.NumField(); h++ {
				if !ha.Field(h).IsNil() || !hb.Field(h).IsNil() {
					return "Hooks." + ha.Type().Field(h).Name + " set"
				}
			}
			same = true
		case "Cost":
			same = *a.Cost == *b.Cost
		case "Prog", "OS", "Now", "Diverged", "nextTID", "liveCount", "faultCount", "costTab", "tabCost":
			same = va.Field(i).Equal(vb.Field(i))
		default:
			return "field " + name + " not compared"
		}
		if !same {
			return name + " differs"
		}
	}
	return ""
}

func diffMemory(a, b *Machine) string {
	if d := a.Mem.DiffPages(b.Mem); len(d) > 0 {
		return fmt.Sprintf("pages %v differ", d)
	}
	if a.Mem.Hash() != b.Mem.Hash() {
		return "hashes differ"
	}
	if a.Mem.Stats() != b.Mem.Stats() {
		return fmt.Sprintf("Stats %+v, %+v", a.Mem.Stats(), b.Mem.Stats())
	}
	if a.Mem.PageCount() != b.Mem.PageCount() {
		return fmt.Sprintf("PageCount %d, %d", a.Mem.PageCount(), b.Mem.PageCount())
	}
	return ""
}

func diffThreads(a, b *Thread) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		var same bool
		switch name {
		case "Frames":
			same = slices.Equal(a.Frames, b.Frames)
		case "ID", "PC", "Regs", "Status", "Retired", "SyncRetired", "SysRetired",
			"ExitVal", "Fault", "SigHandler", "SigRetired", "waitObj":
			same = va.Field(i).Equal(vb.Field(i))
		default:
			return "field " + name + " not compared"
		}
		if !same {
			return name + " differs"
		}
	}
	return ""
}
