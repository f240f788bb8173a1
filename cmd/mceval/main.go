// Command mceval runs the Monte-Carlo validation path of the development
// process (paper sections II and IV): sample encounters from the
// statistical encounter model, simulate the closed-loop system, and
// estimate the mid-air collision probability, alert rate and risk ratio
// with confidence intervals — for the system under test and the baselines.
//
// Usage:
//
//	mceval [-workers 0] [-table table.acxt] [-coarse]
//	       [-systems acasx,belief,svo,none] [-faults <preset>]
//	       [-archive-proposal danger.jsonl] [key=value ...]
//
// The run is set by the rare.* keys of a caserve rare job
// (montecarlo.RareFromConfig), given as trailing key=value arguments and
// applied in order, so a later argument overrides an earlier one:
// rare.samples (default 10000), rare.seed (default 1), rare.method and the
// estimator tuning (rare.defensive, rare.bandwidth, rare.levels, ...). The
// arguments come after the last flag: Go's flag parsing stops at the first
// non-flag. An unknown key or an argument without "=" is an error.
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
	"os"
	"os/signal"
	"strings"
	"syscall"

	"acasxval/internal/acasx"
	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/fault"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
	"acasxval/internal/sys"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mceval:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workers   = flag.Int("workers", 0, "parallel episode workers (0 = NumCPU; the estimate is identical for any count)")
		tablePath = flag.String("table", "", "logic table path (built on the fly when absent)")
		coarse    = flag.Bool("coarse", false, "use the reduced-resolution table when building")
		systems   = flag.String("systems", "acasx,svo,none", "comma-separated systems to evaluate: "+sys.NamesList())
		faults    = flag.String("faults", "", "surveillance degradation preset applied to every episode: "+strings.Join(fault.PresetNames(), ", ")+" (empty = clean)")
		archive   = flag.String("archive-proposal", "", "danger-archive JSONL whose genomes steer the importance-sampling proposal (needs rare.method)")
	)
	flag.Parse()

	if *workers < 0 {
		return fmt.Errorf("-workers %d < 0", *workers)
	}
	spec, cfg, err := rareRun(flag.Args(), *archive)
	if err != nil {
		return err
	}
	// The pairwise airspace model is the one-intruder case of the
	// estimator's K-intruder model; the zero spec is brute force.
	model := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{montecarlo.DefaultEncounterModel()}}
	cfg.Parallelism = *workers
	if cfg.Run.Faults, err = fault.Resolve(*faults); err != nil {
		return err
	}
	if *faults != "" {
		fmt.Printf("degraded surveillance: %s profile on every episode\n", *faults)
	}
	if spec.Method != "" {
		fmt.Printf("rare-event estimator: %s (%d proposal kernels)\n", spec.Method, len(spec.Kernels))
	}

	names := strings.Split(*systems, ",")
	estimates := make(map[string]*montecarlo.Estimate, len(names))

	// SIGINT/SIGTERM cancel between episodes: the systems evaluated so
	// far still report their tables below before the non-zero exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One scratch across all evaluated systems: the simulation worlds and
	// outcome buffers re-wire per system instead of rebuilding.
	var scratch montecarlo.Scratch
	var table *acasx.Table
	var interrupted error
	for _, name := range names {
		name = strings.TrimSpace(name)
		if campaign.NeedsTable(name) && table == nil {
			t, err := acasx.LoadOrBuildTable(*tablePath, *coarse)
			if err != nil {
				return err
			}
			table = t
		}
		factory, err := sys.PairFactory(sys.Context{Table: table}, sys.Spec{Name: name})
		if err != nil {
			return err
		}
		fmt.Printf("evaluating %s over %d sampled encounters...\n", name, cfg.Samples)
		est, err := montecarlo.EstimateRareMultiWithScratchContext(ctx, model, factory, cfg, spec, &scratch)
		if err != nil {
			if ctx.Err() != nil {
				interrupted = err
				break
			}
			return err
		}
		estimates[name] = est
	}

	if spec.Method != "" {
		fmt.Printf("\n%-8s %12s %26s %10s %8s\n",
			"system", "P(NMAC)", "95% CI", "ESS", "VRF")
		for _, name := range names {
			name = strings.TrimSpace(name)
			est := estimates[name]
			if est == nil {
				continue
			}
			fmt.Printf("%-8s %12.3e [%10.3e, %10.3e] %10.1f %8.1f\n",
				name, est.PNMAC, est.PNMACCI.Lo, est.PNMACCI.Hi,
				est.ESS, est.VarianceReduction)
		}
	} else {
		fmt.Printf("\n%-8s %10s %22s %10s %12s %14s\n",
			"system", "P(NMAC)", "95% CI", "alerts", "alert rate", "mean min sep")
		for _, name := range names {
			name = strings.TrimSpace(name)
			est := estimates[name]
			if est == nil {
				continue
			}
			fmt.Printf("%-8s %10.4f [%8.4f, %8.4f] %10.2f %12.2f %12.1f m\n",
				name, est.PNMAC, est.PNMACCI.Lo, est.PNMACCI.Hi,
				est.MeanAlerts, est.AlertRate, est.MeanMinSeparation)
		}
	}

	if spec.Method == "" {
		printRiskRatios(names, estimates)
	}
	if interrupted != nil {
		fmt.Fprintf(os.Stderr, "interrupted: the tables above cover the %d of %d systems that completed\n",
			len(estimates), len(names))
		return interrupted
	}
	return nil
}

// rareRun parses the estimator spec and run config from the rare.*
// key=value arguments, then adds the -archive-proposal kernels.
func rareRun(args []string, archivePath string) (montecarlo.RareEventSpec, montecarlo.Config, error) {
	var cfg montecarlo.Config
	spec, err := config.Override(config.New(), args, func(c *config.Params) (montecarlo.RareEventSpec, error) {
		s, parsed, err := montecarlo.RareFromConfig(c, "rare.")
		cfg = parsed
		return s, err
	})
	if err != nil || archivePath == "" {
		return spec, cfg, err
	}
	if spec.Method == "" {
		return spec, cfg, fmt.Errorf("-archive-proposal needs rare.method")
	}
	entries, err := search.LoadArchiveFile(archivePath)
	if err != nil {
		return spec, cfg, err
	}
	if spec.Kernels, err = search.ProposalKernels(entries); err != nil {
		return spec, cfg, err
	}
	return spec, cfg, spec.Validate()
}

func printRiskRatios(names []string, estimates map[string]*montecarlo.Estimate) {
	if base, ok := estimates["none"]; ok {
		for _, name := range names {
			name = strings.TrimSpace(name)
			if name == "none" || estimates[name] == nil {
				continue
			}
			if ratio, err := montecarlo.RiskRatio(estimates[name], base); err == nil {
				fmt.Printf("\nrisk ratio %s vs unequipped: %.4f", name, ratio)
			}
		}
		fmt.Println()
	}
}
