// Command sweep runs a declarative validation campaign: the scenario x
// system x variant cross-product described by an ECJ-style campaign spec
// file, fanned out over a worker pool. Per-cell results stream as JSONL;
// the run ends with a summary table ranking systems by risk ratio against
// the unequipped baseline.
//
// The whole campaign derives from the spec's seed, so re-running the same
// spec reproduces the output byte for byte.
//
// Usage:
//
//	sweep [-spec params/sweep-demo.params] [-out results.jsonl]
//	      [-seed N] [-samples N] [-intruders K] [-table table.acxt] [-full]
//	      [-extra danger.jsonl] [-faults none,light,severe]
//	      [-estimator is,split] [-archive-proposal danger.jsonl]
//
// With no -out, the JSONL stream precedes the summary on stdout. Timing
// goes to stderr so stdout stays reproducible. -extra appends the entries
// of a danger archive (written by casearch -islands N -archive) to the
// campaign's scenario axis, closing the sweep -> search -> archive -> sweep
// loop.
//
// -estimator overrides the spec's rare-event estimator axis
// (campaign.estimator.methods): each listed method re-estimates P(NMAC)
// under the statistical encounter model for every system, variant and
// fault point, reported in a dedicated summary section with effective
// sample size and variance-reduction factor. -archive-proposal feeds a
// danger archive's genomes to the importance-sampling estimators as
// proposal kernels — the search's failure region steers the estimator.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"acasxval/internal/acasx"
	"acasxval/internal/campaign"
	"acasxval/internal/fault"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		specPath  = flag.String("spec", "params/sweep-demo.params", "campaign spec file (ECJ-style params)")
		outPath   = flag.String("out", "", "JSONL output path (default: stdout)")
		seed      = flag.Uint64("seed", 0, "override the spec's seed (0 keeps the spec value)")
		samples   = flag.Int("samples", 0, "override the spec's per-cell sample count (0 keeps the spec value)")
		tablePath = flag.String("table", "", "logic table path (built on the fly when absent)")
		full      = flag.Bool("full", false, "build the full-resolution table instead of the coarse one")
		extra     = flag.String("extra", "", "danger-archive JSONL whose entries join the scenario axis")
		intruders = flag.Int("intruders", 0, "override the spec's model-draw intruder count K (0 keeps the spec value; presets and explicit scenarios carry their own K)")
		faults    = flag.String("faults", "", "override the spec's fault axis: comma list of degradation presets ("+strings.Join(fault.PresetNames(), ", ")+"), or \"all\"")
		estimator = flag.String("estimator", "", "override the spec's rare-event estimator axis: comma list of methods ("+strings.Join(montecarlo.Methods(), ", ")+"), or \"all\"")
		archive   = flag.String("archive-proposal", "", "danger-archive JSONL whose genomes steer the importance-sampling estimators")
	)
	flag.Parse()

	spec, err := campaign.Load(*specPath)
	if err != nil {
		return err
	}
	if *extra != "" {
		entries, err := search.LoadArchiveFile(*extra)
		if err != nil {
			return err
		}
		scenarios, err := search.CampaignScenarios(entries)
		if err != nil {
			return err
		}
		spec.Scenarios = append(spec.Scenarios, scenarios...)
		fmt.Fprintf(os.Stderr, "added %d archive scenarios from %s\n", len(scenarios), *extra)
	}
	if *intruders < 0 {
		return fmt.Errorf("-intruders %d < 0", *intruders)
	}
	if *intruders != 0 {
		spec.Intruders = *intruders
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *faults != "" {
		names := strings.Split(*faults, ",")
		if len(names) == 1 && strings.TrimSpace(names[0]) == "all" {
			names = fault.PresetNames()
		}
		spec.Faults = nil
		for _, name := range names {
			name = strings.TrimSpace(name)
			p, err := fault.Preset(name)
			if err != nil {
				return err
			}
			spec.Faults = append(spec.Faults, campaign.FaultPoint{Name: name, Profile: p})
		}
	}
	if *estimator != "" {
		names := strings.Split(*estimator, ",")
		if len(names) == 1 && strings.TrimSpace(names[0]) == "all" {
			names = montecarlo.Methods()
		}
		spec.Estimators = nil
		for _, name := range names {
			spec.Estimators = append(spec.Estimators, strings.TrimSpace(name))
		}
	}
	if *archive != "" {
		entries, err := search.LoadArchiveFile(*archive)
		if err != nil {
			return err
		}
		kernels, err := search.ProposalKernels(entries)
		if err != nil {
			return err
		}
		spec.EstimatorSpec.Kernels = kernels
		fmt.Fprintf(os.Stderr, "steering the estimator proposal with %d archive genomes from %s\n", len(kernels), *archive)
	}
	if *samples != 0 {
		spec.Samples = *samples
		// The flag overrides every cell, including variants that pin
		// their own sample count.
		for i := range spec.Variants {
			spec.Variants[i].Samples = 0
		}
	}

	// Only build the logic table when a system in the spec needs it.
	systems := campaign.DefaultSystems(nil)
	for _, name := range spec.Systems {
		if !campaign.NeedsTable(name) {
			continue
		}
		table, err := acasx.LoadOrBuildTable(*tablePath, !*full)
		if err != nil {
			return err
		}
		systems = campaign.DefaultSystems(table)
		break
	}

	var jsonl io.Writer = os.Stdout
	if *outPath != "" {
		f, cerr := os.Create(*outPath)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		jsonl = f
	}

	// SIGINT/SIGTERM cancel the campaign instead of killing it mid-write:
	// the JSONL stream stops cleanly at a cell boundary and the summary
	// below covers exactly the cells that finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := campaign.RunContext(ctx, spec, systems, jsonl)
	elapsed := time.Since(start)
	if err != nil {
		if res == nil {
			return err
		}
		// Interrupted, not failed: the flushed JSONL holds exactly the
		// completed cell prefix. Summarize it, then exit non-zero.
		fmt.Printf("campaign %s interrupted: %d cells completed, %d simulations\n\n", res.Name, len(res.Cells), res.TotalRuns)
		fmt.Print(res.SummaryTable())
		fmt.Fprintf(os.Stderr, "\ninterrupted after %d simulations in %v\n", res.TotalRuns, elapsed.Round(time.Millisecond))
		return err
	}

	fmt.Printf("campaign %s: %d cells, %d simulations\n\n", res.Name, len(res.Cells), res.TotalRuns)
	fmt.Print(res.SummaryTable())
	fmt.Fprintf(os.Stderr, "\n%d simulations in %v\n", res.TotalRuns, elapsed.Round(time.Millisecond))
	return nil
}
