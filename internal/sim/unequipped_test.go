package sim

import (
	"reflect"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/fault"
)

// wrappedNone forwards to NoSystem but is a different type, so the runner
// does not recognize it as unequipped and surveils the aircraft it equips
// on the full path: sensor draws, fault layer, tracking and a decision
// cycle that always returns Decision{}.
type wrappedNone struct{ NoSystem }

// TestUnequippedSkipIsBitIdentical: an unequipped aircraft skips its
// surveillance and decision cycle, and that must not change any output.
// Each case runs once with NoSystem (the skip) and once with wrappedNone
// (the full path) on one reused Runner; the whole Result, trajectory
// included, must agree bit for bit across every pairwise preset and the
// K = 2, 3 multi presets, three fault profiles, tracker on and off, both
// one-sided equipages and none at all, and three seeds.
func TestUnequippedSkipIsBitIdentical(t *testing.T) {
	table := getTable(t)
	var encounters []encounter.MultiParams
	var names []string
	for _, name := range encounter.PresetNames() {
		p, err := encounter.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		encounters, names = append(encounters, p.Multi()), append(names, name)
	}
	for _, name := range []string{"convergepair", "crossstream", "sandwich"} {
		m, err := encounter.MultiPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		encounters, names = append(encounters, m), append(names, name)
	}
	equipages := []struct {
		name          string
		ownAcas, intr bool
	}{
		{"none/none", false, false},
		{"acasx/none", true, false},
		{"none/acasx", false, true},
	}
	// systems equips the ownship and k intruders; unequipped slots get
	// NoSystem, or wrappedNone when full is set.
	systems := func(ownAcas, intrAcas bool, k int, full bool) []System {
		pick := func(acas bool) System {
			switch {
			case acas:
				return NewACASXU(table)
			case full:
				return wrappedNone{}
			default:
				return NoSystem{}
			}
		}
		out := []System{pick(ownAcas)}
		for j := 0; j < k; j++ {
			out = append(out, pick(intrAcas))
		}
		return out
	}

	r, err := NewRunner(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	alerted := 0
	for _, fname := range []string{"none", "moderate", "severe"} {
		prof, err := fault.Preset(fname)
		if err != nil {
			t.Fatal(err)
		}
		for _, tracker := range []bool{true, false} {
			cfg := DefaultRunConfig()
			cfg.Faults = prof
			cfg.UseTracker = tracker
			cfg.RecordTrajectory = true
			if err := r.Reconfigure(cfg); err != nil {
				t.Fatal(err)
			}
			for i, m := range encounters {
				for _, eq := range equipages {
					for _, seed := range []uint64{1, 42, 777} {
						k := m.NumIntruders()
						skip, err := r.RunMulti(m, systems(eq.ownAcas, eq.intr, k, false), seed)
						if err != nil {
							t.Fatal(err)
						}
						skip.AlertCounts = append([]int(nil), skip.AlertCounts...)
						full, err := r.RunMulti(m, systems(eq.ownAcas, eq.intr, k, true), seed)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(skip, full) {
							t.Errorf("%s faults=%s tracker=%v %s seed %d: skipping the unequipped aircraft changed the result\nskip: NMAC %v at %v sep %v alerts %v\nfull: NMAC %v at %v sep %v alerts %v",
								names[i], fname, tracker, eq.name, seed,
								skip.NMAC, skip.NMACTime, skip.MinSeparation, skip.AlertCounts,
								full.NMAC, full.NMACTime, full.MinSeparation, full.AlertCounts)
						}
						if skip.Alerted() {
							alerted++
						}
					}
				}
			}
		}
	}
	if alerted == 0 {
		t.Error("no equipped aircraft ever alerted, so the equipped halves are vacuous")
	}
}
