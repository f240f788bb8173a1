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
//	sweep [-spec params/sweep-demo.params] [-out BASE] [-extra danger.jsonl]
//	      [-archive-proposal danger.jsonl] [key=value ...]
//
// The campaign spec is the grammar of campaign.FromConfig: the -spec file,
// then each trailing key=value argument in order, so an argument overrides
// the file and a later argument an earlier one (campaign.seed=3
// campaign.samples=40 campaign.intruders=2 campaign.faults=all
// campaign.estimator.methods=is,split ...). The arguments come after the
// last flag: Go's flag parsing stops at the first non-flag. An unknown key
// or an argument without "=" is an error. A variant that pins its own
// sample count keeps it under campaign.samples=N; add
// campaign.variant.K.samples=0 to run it at N too. campaign.faults=...
// replaces the file's preset list, but the file's numbered custom fault
// points (campaign.faults.N.*) stay on the axis.
//
// -out BASE writes the artifacts of a caserve campaign job of the same
// spec: BASE.jsonl (one record per cell) and BASE.summary.txt. With no
// -out, the JSONL stream precedes the summary on stdout. Timing goes to
// stderr so stdout stays reproducible. -extra appends the entries of a
// danger archive (casearch -out writes BASE.archive.jsonl) to the
// campaign's scenario axis, closing the sweep -> search -> archive ->
// sweep loop.
//
// The table-backed systems (acasx, belief) run the full-resolution logic
// table, the paper's system, built in process when the spec names one.
//
// campaign.estimator.methods sets the rare-event estimator axis: each
// listed method re-estimates P(NMAC) under the statistical encounter model
// for every system, variant and fault point, reported in a dedicated
// summary section with effective sample size, variance-reduction factor
// and risk ratio against the unequipped baseline. A spec of
// estimator cells alone, params/montecarlo.params, is the section IV
// model-level estimate.
// -archive-proposal feeds a danger archive's genomes to the
// importance-sampling estimators as proposal kernels — the search's
// failure region steers the estimator.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/durable"
	"acasxval/internal/search"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		specPath = flags.String("spec", "params/sweep-demo.params", "campaign spec file (ECJ-style params; key=value arguments override it)")
		outBase  = flags.String("out", "", "artifact base: write BASE.jsonl and BASE.summary.txt (default: JSONL on stdout)")
		extra    = flags.String("extra", "", "danger-archive JSONL whose entries join the scenario axis")
		archive  = flags.String("archive-proposal", "", "danger-archive JSONL whose genomes steer the importance-sampling estimators")
	)
	flags.Parse(args)

	spec, err := campaignSpec(*specPath, flags.Args())
	if err != nil {
		return err
	}
	if *extra != "" {
		entries, err := loadArchive(*extra)
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
	if *archive != "" {
		entries, err := loadArchive(*archive)
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
	systems, err := campaign.LoadSystems(spec.Systems)
	if err != nil {
		return err
	}
	// Without -out the JSONL streams to stdout as cells complete.
	jsonl := stdout
	if *outBase != "" {
		jsonl = nil
	}

	// SIGINT/SIGTERM cancel the campaign instead of killing it mid-write:
	// the JSONL stops cleanly at a cell boundary and the artifacts and
	// summary below cover exactly the cells that finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := campaign.RunContext(ctx, spec, systems, jsonl)
	elapsed := time.Since(start)
	if res == nil {
		return err
	}
	if *outBase != "" {
		artifacts, aerr := res.Artifacts()
		if aerr == nil {
			aerr = durable.WriteArtifacts(*outBase, artifacts)
		}
		if aerr != nil {
			return aerr
		}
	}
	if err != nil {
		// Interrupted, not failed: the completed cell prefix. Summarize
		// it, then exit non-zero.
		fmt.Fprintf(stdout, "campaign %s interrupted: %d cells completed, %d simulations\n\n", res.Name, len(res.Cells), res.TotalRuns)
		fmt.Fprint(stdout, res.SummaryTable())
		fmt.Fprintf(os.Stderr, "\ninterrupted after %d simulations in %v\n", res.TotalRuns, elapsed.Round(time.Millisecond))
		return err
	}

	fmt.Fprintf(stdout, "campaign %s: %d cells, %d simulations\n\n", res.Name, len(res.Cells), res.TotalRuns)
	fmt.Fprint(stdout, res.SummaryTable())
	fmt.Fprintf(os.Stderr, "\n%d simulations in %v\n", res.TotalRuns, elapsed.Round(time.Millisecond))
	return nil
}

// loadArchive reads a danger archive, warning on stderr when its last
// line was half-written and skipped.
func loadArchive(path string) ([]search.ArchiveEntry, error) {
	entries, truncated, err := search.LoadArchiveFile(path)
	if truncated {
		fmt.Fprintf(os.Stderr, "warning: %s ends in a half-written line (writer killed mid-record?); skipped\n", path)
	}
	return entries, err
}

// campaignSpec parses the campaign spec from the file at path overridden
// by the key=value arguments in order.
func campaignSpec(path string, args []string) (campaign.Spec, error) {
	params, err := config.Load(path)
	if err != nil {
		return campaign.Spec{}, err
	}
	return config.Override(params, args, campaign.FromConfig)
}
