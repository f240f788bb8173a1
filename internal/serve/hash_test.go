package serve

import (
	"math"
	"testing"

	"acasxval/internal/campaign"
	"acasxval/internal/montecarlo"
)

// baseSpec returns a small campaign spec with implicit defaults left
// implicit.
func baseSpec() campaign.Spec {
	s := campaign.DefaultSpec()
	s.Name = "hash-test"
	s.Presets = []string{"headon", "crossing"}
	s.Systems = []string{"none", "svo"}
	s.Samples = 4
	s.Seed = 7
	return s
}

func mustHash(t *testing.T, s campaign.Spec) string {
	t.Helper()
	h, err := SpecHash(s)
	if err != nil {
		t.Fatalf("SpecHash: %v", err)
	}
	return h
}

// TestSpecHashCanonicalEquivalence: spellings of the same campaign hash
// identically — implicit vs explicit defaults, and scheduling-only
// fields.
func TestSpecHashCanonicalEquivalence(t *testing.T) {
	base := mustHash(t, baseSpec())

	explicit := baseSpec()
	explicit.Variants = []campaign.Variant{{Name: "default"}}
	explicit.Faults = []campaign.FaultPoint{{Name: "none"}}
	m := montecarlo.DefaultEncounterModel()
	explicit.Model = &m
	explicit.Intruders = 1
	if got := mustHash(t, explicit); got != base {
		t.Errorf("explicit defaults hash %s, implicit %s — want equal", got, base)
	}

	par := baseSpec()
	par.Parallelism = 8
	if got := mustHash(t, par); got != base {
		t.Errorf("Parallelism changed the hash — it must be scheduling-only")
	}

	// Estimator tuning without the estimator axis never executes.
	tuned := baseSpec()
	tuned.EstimatorSpec = montecarlo.RareEventSpec{Defensive: 0.9}
	if got := mustHash(t, tuned); got != base {
		t.Errorf("estimator tuning without the axis changed the hash")
	}
}

// TestSpecHashSensitivity: every semantic change must change the hash.
func TestSpecHashSensitivity(t *testing.T) {
	base := mustHash(t, baseSpec())
	seen := map[string]string{"base": base}
	check := func(name string, s campaign.Spec) {
		t.Helper()
		h := mustHash(t, s)
		for other, oh := range seen {
			if h == oh {
				t.Errorf("%s hashes equal to %s", name, other)
			}
		}
		seen[name] = h
	}

	s := baseSpec()
	s.Samples = 5
	check("samples", s)

	s = baseSpec()
	s.Seed = 8
	check("seed", s)

	s = baseSpec()
	s.Systems = []string{"svo", "none"} // order is cell order: semantic
	check("system order", s)

	s = baseSpec()
	s.Presets = []string{"headon", "vertical"}
	check("preset", s)

	s = baseSpec()
	s.Faults = []campaign.FaultPoint{{Name: "none"}, {Name: "p"}}
	s.Faults[1].Profile.BurstEnter = 0.1
	s.Faults[1].Profile.BurstExit = 0.5
	s.Faults[1].Profile.BurstDrop = 1
	check("fault point", s)

	s = baseSpec()
	s.Variants = []campaign.Variant{{Name: "default", Samples: 2}}
	check("variant override", s)

	s = baseSpec()
	s.Estimators = []string{"is"}
	check("estimator axis", s)

	s = baseSpec()
	s.Estimators = []string{"is"}
	s.EstimatorSpec.Kernels = [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	check("estimator kernel", s)
}

// TestHashGolden pins the spec hash and one cell hash of the reference
// spec. Every cache key is a hash of the canonical spec encoding, so a
// schema edit (adding, removing or renaming a Spec field) moves all of them
// at once and a state directory from an older build recomputes its cells
// instead of hitting the cache. This test makes such an edit deliberate:
// update the digests in the same change and say so in its description.
func TestHashGolden(t *testing.T) {
	spec := baseSpec()
	if got, want := mustHash(t, spec), "db500b93d780b9b5e77b32d79e79715c848d47d8e87f7b716a8de6392688108e"; got != want {
		t.Errorf("SpecHash = %s, want %s", got, want)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	got, err := CellHash(spec, cells[len(cells)-1])
	if err != nil {
		t.Fatal(err)
	}
	if want := "894276826f3a289816af5b648081eefd95b439694196475c7f40da556bf357c5"; got != want {
		t.Errorf("CellHash(last cell) = %s, want %s", got, want)
	}
}

// TestSpecHashRejectsNonFinite: NaN would break hash equality itself.
func TestSpecHashRejectsNonFinite(t *testing.T) {
	s := baseSpec()
	s.Run.Overtime = math.NaN()
	if _, err := SpecHash(s); err == nil {
		t.Error("SpecHash accepted a NaN field")
	}
}

// FuzzSpecHashCanonical proves, over arbitrary field draws, that (a)
// semantically-equal spellings hash identically and (b) a field change
// changes the hash.
func FuzzSpecHashCanonical(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), false)
	f.Add(uint64(99), uint8(1), uint8(16), true)
	f.Add(uint64(0), uint8(255), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed uint64, samples, par uint8, coord bool) {
		s := baseSpec()
		s.Seed = seed
		s.Samples = int(samples) + 1
		s.Run.Coordination = coord
		s.Parallelism = 0
		base, err := SpecHash(s)
		if err != nil {
			t.Fatalf("SpecHash: %v", err)
		}

		// Same campaign, spelled with explicit defaults and a different
		// worker budget.
		eq := s
		eq.Variants = []campaign.Variant{{Name: "default"}}
		eq.Faults = []campaign.FaultPoint{{Name: "none"}}
		m := montecarlo.DefaultEncounterModel()
		eq.Model = &m
		eq.Intruders = 1
		eq.Parallelism = int(par)
		if got, err := SpecHash(eq); err != nil || got != base {
			t.Errorf("equivalent spec hashes %s (err %v), want %s", got, err, base)
		}

		// Any semantic change must move the hash.
		mut := s
		mut.Samples++
		if got, _ := SpecHash(mut); got == base {
			t.Errorf("samples change did not change the hash")
		}
		mut = s
		mut.Seed++
		if got, _ := SpecHash(mut); got == base {
			t.Errorf("seed change did not change the hash")
		}
		mut = s
		mut.Run.Coordination = !coord
		if got, _ := SpecHash(mut); got == base {
			t.Errorf("coordination change did not change the hash")
		}
	})
}
