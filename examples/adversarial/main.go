// Example adversarial walks the full sweep -> search -> archive -> sweep
// loop through the facade, no spec files and no logic table (the SVO
// baseline keeps it fast):
//
//  1. a validation campaign sweeps the shipped presets and flags its worst
//     cells,
//  2. those cells seed the initial populations of an island-model
//     adversarial search, which evolves them toward encounters the system
//     cannot resolve and accumulates a deduplicated danger archive
//     (checkpointing after every generation),
//  3. the archive's entries come back as explicit campaign scenarios, and a
//     second sweep quantifies how much worse the discovered encounters are
//     than the presets.
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

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

	// 1. Baseline sweep: every preset against the SVO baseline.
	spec := acasxval.DefaultCampaignSpec()
	spec.Name = "baseline"
	spec.Systems = []string{"svo"}
	spec.Samples = 8
	spec.Seed = 21
	systems := acasxval.DefaultCampaignSystems(nil)

	var jsonl bytes.Buffer
	res, err := acasxval.RunCampaignContext(ctx, spec, systems, &jsonl)
	if err != nil {
		return err
	}
	fmt.Printf("1. baseline sweep: %d cells, %d simulations\n%s\n",
		len(res.Cells), res.TotalRuns, res.SummaryTable())

	// The sweep JSONL would normally live on disk (cmd/sweep -out); write
	// it to a temp dir so the seeding path below is the real file path.
	dir, err := os.MkdirTemp("", "adversarial-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sweepPath := filepath.Join(dir, "sweep.jsonl")
	if err := os.WriteFile(sweepPath, jsonl.Bytes(), 0o644); err != nil {
		return err
	}

	// 2. Island search seeded from the sweep's worst cells.
	seeds, err := acasxval.SweepSeedGenomes(sweepPath, 16)
	if err != nil {
		return err
	}
	search := acasxval.DefaultSearchSpec()
	search.Name = "example"
	search.Islands = 2
	search.GA.PopulationSize = 12
	search.GA.Generations = 4
	search.Fitness.SimsPerEncounter = 8
	search.ArchiveThreshold = 2000
	search.Seed = 5
	search.SeedGenomes = seeds

	factory, err := acasxval.NewSystemFactory(acasxval.SystemContext{}, acasxval.SystemSpec{Name: "svo"})
	if err != nil {
		return err
	}

	fmt.Printf("2. island search: %d islands x %d individuals, %d seed genomes from the sweep\n",
		search.Islands, search.GA.PopulationSize, len(seeds))
	sres, err := acasxval.RunSearchContext(ctx, search, factory, acasxval.SearchOptions{
		CheckpointPath: filepath.Join(dir, "search.ckpt"),
	})
	if err != nil {
		return err
	}
	fmt.Printf("   best fitness %.1f (%s), %d evaluations, %d archived encounters\n",
		sres.Best.Fitness, sres.Best.Geometry.Category, sres.NumEvaluations, sres.Archive.Len())

	archivePath := filepath.Join(dir, "danger.jsonl")
	f, err := os.Create(archivePath)
	if err != nil {
		return err
	}
	if err := sres.Archive.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// 3. Replay the archive as a campaign: the discovered encounters
	// become explicit scenarios of a fresh sweep.
	entries, err := acasxval.LoadDangerArchive(archivePath)
	if err != nil {
		return err
	}
	scenarios, err := acasxval.ArchiveCampaignScenarios(entries)
	if err != nil {
		return err
	}
	replay := acasxval.DefaultCampaignSpec()
	replay.Name = "replay"
	replay.Presets = nil
	replay.Scenarios = scenarios
	replay.Systems = []string{"svo"}
	replay.Samples = 8
	replay.Seed = 21

	rres, err := acasxval.RunCampaignContext(ctx, replay, systems, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\n3. archive replay sweep: %d discovered scenarios\n%s",
		len(scenarios), rres.SummaryTable())
	fmt.Println("\nthe replayed P(NMAC) vs the baseline sweep above is the search's value:")
	fmt.Println("it found (and archived) encounter geometries the preset axis never exercises.")
	return nil
}
