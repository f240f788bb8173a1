// Command mceval runs the Monte-Carlo validation path of the development
// process (paper sections II and IV): sample encounters from the
// statistical encounter model, simulate the closed-loop system, and
// estimate the mid-air collision probability, alert rate and risk ratio
// with confidence intervals — for the system under test and the baselines.
//
// Usage:
//
//	mceval [-samples 10000] [-seed 1] [-workers 0] [-table table.acxt]
//	       [-coarse] [-systems acasx,belief,svo,none] [-faults <preset>]
//	       [-estimator is|snis|split] [-archive-proposal danger.jsonl]
//	       [-defensive 0.5] [-bandwidth 0.1] [-levels 450,250,160]
//
// Episodes fan out over -workers parallel simulation worlds (0 = NumCPU).
// Every episode's random streams derive counter-style from (seed, episode
// index), so the reported estimates are bit-identical for any worker count.
//
// -estimator selects a rare-event estimator instead of plain Monte Carlo:
// importance sampling ("is", "snis") optionally steered by a danger
// archive's genomes (-archive-proposal), or multi-level splitting ("split")
// down the -levels separation ladder. Estimator runs report the effective
// sample size and the measured variance-reduction factor next to each
// estimate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"acasxval/internal/acasx"
	"acasxval/internal/campaign"
	"acasxval/internal/cli"
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
		samples   = flag.Int("samples", 10000, "sampled encounters per system")
		seed      = flag.Uint64("seed", 1, "sampling seed")
		workers   = flag.Int("workers", 0, "parallel episode workers (0 = NumCPU; the estimate is identical for any count)")
		tablePath = flag.String("table", "", "logic table path (built on the fly when absent)")
		coarse    = flag.Bool("coarse", false, "use the reduced-resolution table when building")
		systems   = flag.String("systems", "acasx,svo,none", "comma-separated systems to evaluate: "+sys.NamesList())
		faults    = flag.String("faults", "", "surveillance degradation preset applied to every episode: "+strings.Join(fault.PresetNames(), ", ")+" (empty = clean)")
		estimator = flag.String("estimator", "", "rare-event estimator: "+strings.Join(montecarlo.Methods(), ", ")+" (empty = plain Monte Carlo)")
		archive   = flag.String("archive-proposal", "", "danger-archive JSONL whose genomes steer the importance-sampling proposal")
		defensive = flag.Float64("defensive", 0, "defensive mixture weight kept on the target model (0 = default)")
		bandwidth = flag.Float64("bandwidth", 0, "minimum kernel bandwidth as a fraction of each dimension's width (0 = default)")
		levels    = flag.String("levels", "", "comma-separated decreasing separation ladder for -estimator split (empty = default)")
	)
	flag.Parse()

	if *workers < 0 {
		return fmt.Errorf("-workers %d < 0", *workers)
	}
	spec, err := estimatorSpec(*estimator, *archive, *defensive, *bandwidth, *levels)
	if err != nil {
		return err
	}
	// The pairwise airspace model is the one-intruder case of the
	// estimator's K-intruder model; the zero spec is brute force.
	model := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{montecarlo.DefaultEncounterModel()}}
	cfg := montecarlo.DefaultConfig()
	cfg.Samples = *samples
	cfg.Seed = *seed
	cfg.Parallelism = *workers
	if cfg.Run.Faults, err = fault.Resolve(*faults); err != nil {
		return err
	}
	if *faults != "" {
		fmt.Printf("degraded surveillance: %s profile on every episode\n", *faults)
	}
	if *estimator != "" {
		fmt.Printf("rare-event estimator: %s (%d proposal kernels)\n", *estimator, len(spec.Kernels))
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
			t, err := cli.LoadOrBuildTable(*tablePath, *coarse, 0)
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

	if *estimator != "" {
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

	if *estimator == "" {
		printRiskRatios(names, estimates)
	}
	if interrupted != nil {
		fmt.Fprintf(os.Stderr, "interrupted: the tables above cover the %d of %d systems that completed\n",
			len(estimates), len(names))
		return interrupted
	}
	return nil
}

// estimatorSpec assembles the rare-event estimator spec from the flags:
// the method, optional danger-archive proposal kernels, and tuning
// overrides (zero values keep the estimator defaults).
func estimatorSpec(method, archivePath string, defensive, bandwidth float64, levels string) (montecarlo.RareEventSpec, error) {
	spec := montecarlo.RareEventSpec{
		Method:    method,
		Defensive: defensive,
		Bandwidth: bandwidth,
	}
	if method == "" {
		if archivePath != "" || defensive != 0 || bandwidth != 0 || levels != "" {
			return spec, fmt.Errorf("estimator tuning flags need -estimator")
		}
		return spec, nil
	}
	if archivePath != "" {
		entries, err := search.LoadArchiveFile(archivePath)
		if err != nil {
			return spec, err
		}
		if spec.Kernels, err = search.ProposalKernels(entries); err != nil {
			return spec, err
		}
	}
	for _, part := range strings.Split(levels, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		l, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return spec, fmt.Errorf("-levels: %w", err)
		}
		spec.Levels = append(spec.Levels, l)
	}
	return spec, spec.Validate()
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
