// Example degraded runs the degraded-mode validation loop through the
// facade, no spec files and no logic table (the SVO baseline keeps it
// fast):
//
//  1. a campaign sweeps the conflict presets across a surveillance
//     degradation axis — clean channel, burst dropout, near-blind — with
//     every fault point replaying the clean point's episode seeds, so the
//     ranking isolates the pure degradation effect;
//  2. an island-model adversarial search co-evolves the encounter geometry
//     WITH the degradation profile, with a severity penalty so mild faults
//     that still defeat avoidance outrank brute-force blackouts;
//  3. the search's best co-evolved fault profile comes back as a campaign
//     fault point, quantifying the discovered weakness across the whole
//     preset axis.
package main

import (
	"context"
	"fmt"
	"os"

	"acasxval"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()

	// 1. Degradation sweep: presets x {clean, moderate, severe} for the SVO
	// baseline against the unequipped channel.
	moderate, err := acasxval.FaultPreset("moderate")
	if err != nil {
		return err
	}
	severe, err := acasxval.FaultPreset("severe")
	if err != nil {
		return err
	}
	spec := acasxval.DefaultCampaignSpec()
	spec.Name = "degraded"
	spec.Systems = []string{"none", "svo"}
	spec.Samples = 8
	spec.Seed = 21
	spec.Faults = []acasxval.CampaignFaultPoint{
		{Name: "none"},
		{Name: "moderate", Profile: moderate},
		{Name: "severe", Profile: severe},
	}
	systems := acasxval.DefaultCampaignSystems(nil)

	res, err := acasxval.RunCampaignContext(ctx, spec, systems, nil)
	if err != nil {
		return err
	}
	fmt.Printf("1. degradation sweep: %d cells, %d simulations\n%s\n",
		len(res.Cells), res.TotalRuns, res.SummaryTable())
	fmt.Println("   (each fault point replays the clean point's episode seeds: the")
	fmt.Println("   risk-ratio climb down the fault column is pure degradation effect)")

	// 2. Co-evolve geometry and degradation: the genome grows seven fault
	// genes, and the severity penalty makes the search prefer the mildest
	// degradation that still produces collisions.
	search := acasxval.DefaultSearchSpec()
	search.Name = "degraded"
	search.Islands = 2
	search.GA.PopulationSize = 12
	search.GA.Generations = 4
	search.Fitness.SimsPerEncounter = 8
	search.ArchiveThreshold = 2000
	search.Seed = 5
	search.EvolveFaults = true
	search.FaultPenalty = 200

	factory, err := acasxval.NewSystemFactory(acasxval.SystemContext{}, acasxval.SystemSpec{Name: "svo"})
	if err != nil {
		return err
	}

	fmt.Printf("\n2. co-evolving search: %d islands x %d individuals, genome = geometry + %d fault genes\n",
		search.Islands, search.GA.PopulationSize, search.GenomeLen()-9)
	sres, err := acasxval.RunSearchContext(ctx, search, factory, acasxval.SearchOptions{})
	if err != nil {
		return err
	}
	best := sres.Best
	fmt.Printf("   best fitness %.1f (%s), evolved degradation severity %.2f\n",
		best.Fitness, best.Geometry.Category, best.Fault.Severity())
	fmt.Printf("   profile: %+v\n", best.Fault)

	// 3. The discovered degradation becomes a campaign axis point: how much
	// does this exact fault pattern hurt across ALL the preset conflicts?
	replay := spec
	replay.Name = "discovered"
	replay.Faults = []acasxval.CampaignFaultPoint{
		{Name: "none"},
		{Name: "discovered", Profile: best.Fault},
	}
	rres, err := acasxval.RunCampaignContext(ctx, replay, systems, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\n3. discovered-fault sweep:\n%s", rres.SummaryTable())
	fmt.Println("\nthe \"discovered\" fault rows quantify the search's finding: a degradation")
	fmt.Println("pattern tuned against one geometry, measured across the whole preset axis.")
	return nil
}
