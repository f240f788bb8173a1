package core

import (
	"math"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/ga"
)

func TestFitnessConfigValidation(t *testing.T) {
	if err := DefaultFitnessConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultFitnessConfig()
	bad.SimsPerEncounter = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sims accepted")
	}
	bad2 := DefaultFitnessConfig()
	bad2.CollisionGain = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero gain accepted")
	}
	bad3 := DefaultFitnessConfig()
	bad3.Run.Dt = 0
	if err := bad3.Validate(); err == nil {
		t.Error("bad run config accepted")
	}
}

// TestTopEncounters: the top list is sorted by decreasing fitness, keeps
// provenance, reports a longer genome by its first pairwise block, and
// skips genomes too short to decode.
func TestTopEncounters(t *testing.T) {
	head := encounter.PresetHeadOn().Vector()
	tail := encounter.PresetTailApproach().Vector()
	evals := []ga.Evaluation{
		{Generation: 0, Index: 0, Genome: head, Fitness: 10},
		{Generation: 1, Index: 3, Genome: append(append([]float64(nil), tail...), head...), Fitness: 900},
		{Generation: 1, Index: 4, Genome: []float64{1, 2}, Fitness: 5000},
	}
	top := TopEncounters(encounter.DefaultRanges(), evals, 3)
	if len(top) != 2 || top[0].Fitness != 900 || top[1].Fitness != 10 {
		t.Fatalf("top list = %+v, want the fitness-900 then fitness-10 evaluations", top)
	}
	if top[0].Generation != 1 || top[0].Index != 3 || top[0].Params != encounter.PresetTailApproach() {
		t.Errorf("top[0] = %+v, want generation 1 index 3 decoded to its first block", top[0])
	}
	if got := TopEncounters(encounter.DefaultRanges(), evals, 0); got != nil {
		t.Errorf("k=0 top list = %v, want nil", got)
	}
}

func TestTallyAndDominant(t *testing.T) {
	found := []Found{
		{Geometry: encounter.Geometry{Category: encounter.TailApproach, VerticallyOpposed: true}},
		{Geometry: encounter.Geometry{Category: encounter.TailApproach}},
		{Geometry: encounter.Geometry{Category: encounter.HeadOn}},
		{Geometry: encounter.Geometry{Category: encounter.Crossing}},
	}
	tally := Tally(found)
	if tally.TailApproach != 2 || tally.HeadOn != 1 || tally.Crossing != 1 {
		t.Errorf("tally = %+v", tally)
	}
	if tally.VerticallyOpposed != 1 {
		t.Errorf("vertically opposed = %d", tally.VerticallyOpposed)
	}
	if tally.Dominant() != encounter.TailApproach {
		t.Errorf("dominant = %v", tally.Dominant())
	}
	if tally.String() == "" {
		t.Error("empty tally string")
	}
	if got := Tally(nil).Total; got != 0 {
		t.Errorf("empty tally total = %d", got)
	}
}

func TestClusterEvaluations(t *testing.T) {
	ranges := encounter.DefaultRanges()
	// Two well-separated synthetic groups: low-speed and high-speed
	// encounters.
	var evals []ga.Evaluation
	mk := func(gso float64, fit float64) ga.Evaluation {
		p := encounter.PresetHeadOn()
		p.OwnGroundSpeed = gso
		p.IntruderGroundSpeed = gso
		return ga.Evaluation{Genome: p.Vector(), Fitness: fit}
	}
	for i := 0; i < 10; i++ {
		evals = append(evals, mk(22+float64(i)*0.2, 9000))
		evals = append(evals, mk(57+float64(i)*0.2, 5000))
	}
	clusters, err := ClusterEvaluations(ranges, evals, 2, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(clusters))
	}
	// Sorted by mean fitness: first cluster is the 9000 group (slow).
	if clusters[0].MeanFitness < clusters[1].MeanFitness {
		t.Error("clusters not sorted by fitness")
	}
	slow := clusters[0].Center.OwnGroundSpeed
	fast := clusters[1].Center.OwnGroundSpeed
	if math.Abs(slow-23) > 3 || math.Abs(fast-58) > 3 {
		t.Errorf("cluster centers %v / %v, want ~23 / ~58", slow, fast)
	}
	if len(clusters[0].Members)+len(clusters[1].Members) != 20 {
		t.Error("members lost")
	}
}

func TestClusterEvaluationsErrors(t *testing.T) {
	ranges := encounter.DefaultRanges()
	if _, err := ClusterEvaluations(ranges, nil, 0, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ClusterEvaluations(ranges, nil, 2, 0, 1); err == nil {
		t.Error("empty evaluations accepted")
	}
	evals := []ga.Evaluation{{Genome: encounter.PresetHeadOn().Vector(), Fitness: 10}}
	if _, err := ClusterEvaluations(ranges, evals, 2, 100, 1); err == nil {
		t.Error("all-below-threshold accepted")
	}
	// k larger than points: clamps.
	clusters, err := ClusterEvaluations(ranges, evals, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Errorf("got %d clusters, want 1", len(clusters))
	}
}

func TestReportTop(t *testing.T) {
	found := []Found{{
		Params:  encounter.PresetTailApproach(),
		Fitness: 9500,
		Geometry: encounter.Geometry{
			Category:          encounter.TailApproach,
			VerticallyOpposed: true,
		},
	}}
	out := ReportTop(found)
	if out == "" || len(out) < 20 {
		t.Errorf("report too short: %q", out)
	}
}
