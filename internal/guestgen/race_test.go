package guestgen_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"doubleplay/internal/guestgen"
	"doubleplay/internal/race"
)

// TestDisciplinedGuestsRaceFree holds Guest.Disciplined to the dynamic
// detector: every disciplined guest Generate and GenerateRacy make from
// TestGeneratedGuests' inputs for seeds 0–399 runs under race.Find with
// an empty report. A guest the detector cannot run is an error too,
// unless it may fault — its fault then ended the run, not the detector.
func TestDisciplinedGuestsRaceFree(t *testing.T) {
	var checked, faulted int
	for seed := uint64(0); seed < 400; seed++ {
		data := binary.LittleEndian.AppendUint64(nil, seed*0x9e3779b97f4a7c15+1)
		for _, gen := range []struct {
			name string
			make func([]byte) *guestgen.Guest
		}{{"Generate", guestgen.Generate}, {"GenerateRacy", guestgen.GenerateRacy}} {
			g := gen.make(data)
			if !g.Disciplined {
				continue
			}
			name := fmt.Sprintf("%s(seed %d)", gen.name, seed)
			races, err := race.Find(g.Prog, g.World())
			switch {
			case err != nil && g.MayFault:
				faulted++
			case err != nil:
				t.Errorf("%s: disciplined and fault-free, but race.Find cannot run it: %v", name, err)
			case len(races) > 0:
				t.Errorf("%s: disciplined, yet race.Find reports %d race(s), first %s", name, len(races), races[0])
			default:
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no disciplined guest ran to completion; the check checks nothing")
	}
	t.Logf("%d disciplined guests race-free, %d ended in a fault", checked, faulted)
}
