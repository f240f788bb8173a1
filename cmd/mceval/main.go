// Command mceval runs the Monte-Carlo validation path of the development
// process (paper sections II and IV): sample encounters from the
// statistical encounter model, simulate the closed-loop system, and
// estimate the mid-air collision probability, alert rate and risk ratio
// with confidence intervals — for the system under test and the baselines.
//
// Usage:
//
//	mceval [-workers 0] [-table table.acxt] [-coarse]
//	       [-archive-proposal danger.jsonl] [-out BASE] [key=value ...]
//
// The run is a caserve rare job (montecarlo.RareFromConfig): its rare.*
// keys are given as trailing key=value arguments and applied in order, so
// a later argument overrides an earlier one: rare.system (a list, default
// acasx,svo,none here), rare.samples (default 10000), rare.seed (default
// 1), rare.faults.preset and the rare.faults.<field> overrides (a
// surveillance degradation profile on every episode), rare.method and the
// estimator tuning (rare.defensive, rare.bandwidth, rare.levels, ...). The
// arguments come after the last flag: Go's flag parsing stops at the first
// non-flag. An unknown key or an argument without "=" is an error.
//
// -out BASE writes the rare job's artifacts: BASE.result.json holds one
// estimate per line in rare.system order, BASE.summary.txt the table
// printed on stdout.
//
// Episodes fan out over -workers parallel simulation worlds (0 = NumCPU).
// Every episode's random streams derive counter-style from (seed, episode
// index), so the reported estimates are bit-identical for any worker count.
//
// rare.method selects a rare-event estimator instead of plain Monte Carlo:
// importance sampling ("is", "snis") optionally steered by a danger
// archive's genomes (-archive-proposal), or multi-level splitting ("split")
// down the rare.levels separation ladder. Estimator tuning, or
// -archive-proposal, without rare.method is an error. Estimator runs report
// the effective sample size and the measured variance-reduction factor next
// to each estimate.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/durable"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mceval:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("mceval", flag.ExitOnError)
	var (
		workers   = flags.Int("workers", 0, "parallel episode workers (0 = NumCPU; the estimate is identical for any count)")
		tablePath = flags.String("table", "", "logic table path (built on the fly when absent)")
		coarse    = flags.Bool("coarse", false, "use the reduced-resolution table when building")
		archive   = flags.String("archive-proposal", "", "danger-archive JSONL whose genomes steer the importance-sampling proposal (needs rare.method)")
		outBase   = flags.String("out", "", "artifact base: write BASE.result.json and BASE.summary.txt")
	)
	flags.Parse(args)

	if *workers < 0 {
		return fmt.Errorf("-workers %d < 0", *workers)
	}
	job, preset, err := rareRun(flags.Args(), *archive)
	if err != nil {
		return err
	}
	job.Config.Parallelism = *workers
	systems, err := campaign.LoadSystems(job.Systems, *tablePath, *coarse)
	if err != nil {
		return err
	}
	if job.Config.Run.Faults.Enabled() {
		fmt.Fprintf(stdout, "degraded surveillance: %s profile on every episode\n", preset)
	}
	if job.Spec.Method != "" {
		fmt.Fprintf(stdout, "rare-event estimator: %s (%d proposal kernels)\n", job.Spec.Method, len(job.Spec.Kernels))
	}

	// SIGINT/SIGTERM cancel between episodes: the systems evaluated so
	// far still report their tables below before the non-zero exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ests, err := job.Run(ctx, systems, func(name string) {
		fmt.Fprintf(stdout, "evaluating %s over %d sampled encounters...\n", name, job.Config.Samples)
	})
	if err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Fprint(stdout, "\n"+job.Summary(ests))
	if *outBase != "" {
		artifacts, aerr := job.Artifacts(ests)
		if aerr == nil {
			aerr = durable.WriteArtifacts(*outBase, artifacts)
		}
		if aerr != nil {
			return aerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "interrupted: the tables above cover the %d of %d systems that completed\n",
			len(ests), len(job.Systems))
	}
	return err
}

// rareRun parses the rare-event job from the rare.* key=value arguments
// over mceval's default system list, then adds the -archive-proposal
// kernels. It also returns the rare.faults.preset name ("custom" when
// only profile fields are set).
func rareRun(args []string, archivePath string) (montecarlo.RareJob, string, error) {
	params := config.New()
	params.Set("rare.system", "acasx,svo,none")
	job, err := config.Override(params, args, montecarlo.RareFromConfig)
	preset := params.StringOr("rare.faults.preset", "custom")
	if err != nil || archivePath == "" {
		return job, preset, err
	}
	if job.Spec.Method == "" {
		return job, preset, fmt.Errorf("-archive-proposal needs rare.method")
	}
	entries, err := search.LoadArchiveFile(archivePath)
	if err != nil {
		return job, preset, err
	}
	if job.Spec.Kernels, err = search.ProposalKernels(entries); err != nil {
		return job, preset, err
	}
	return job, preset, job.Spec.Validate()
}
