// Command casearch runs the paper's section VII experiment: the GA-based
// search for challenging situations where ACAS XU behaves poorly. With the
// default settings it reproduces the paper-scale workload — one population
// of 200 evolved for 5 generations, every encounter scored by 100
// stochastic simulations — and reports the Fig. 6 fitness series, the
// wall-clock time (paper footnote 5: ~300 s), and the geometry analysis of
// the discovered encounters (Figs. 7-8: tail approaches dominate).
//
// Every run goes through the island-model engine (internal/search); the
// paper's GA is its one-island case. With search.islands=N (N >= 2), N
// populations (pop.size is per island) evolve concurrently and exchange
// elites via ring migration. search.intruders=K evolves K-intruder
// encounters; -seed-from-sweep seeds the initial populations from the
// worst cells of a prior sweep's JSONL output.
//
// Usage:
//
//	casearch [-top 10] [-params ecj.params] [-out BASE] [-baseline]
//	         [-seed-from-sweep results.jsonl] [-workers W] [key=value ...]
//
// The search spec is the grammar of search.FromConfig, the one a caserve
// search job reads: the -params file, then each trailing key=value
// argument in order, so an argument overrides the file and a later
// argument an earlier one (search.system=svo pop.size=20 generations=3
// search.sims=10 seed=7 search.islands=4 ...). The arguments come after
// the last flag: Go's flag parsing stops at the first non-flag. An unknown
// key, an argument without "=", or an out-of-range value is an error.
// Two paper defaults apply when neither the file nor an argument sets
// them: search.islands=1, the single population, and search.system=acasx.
// The table-backed systems (acasx, belief) run the full-resolution logic
// table, the paper's system, built in process.
//
// -out BASE writes exactly the artifact set of a caserve search job under
// BASE: BASE.archive.jsonl when the archive is not empty, BASE.result.json,
// BASE.summary.txt and BASE.checkpoint.json. The checkpoint is written
// after every generation; rerunning into an existing one resumes
// bit-identically, so delete it to start fresh.
//
// The -top report and the geometry tally read the danger archive, the
// one failure record: each entry keeps all K intruders and its co-evolved
// fault genes, and encsim -archive BASE.archive.jsonl -rank N replays the
// report's row N. The Fig. 6 series and -baseline read the evaluation log,
// which lists each fresh evaluation once (elites and migrants carried into
// a later generation are not simulated again) and, on a resumed run,
// covers only this invocation's generations. -baseline runs the uniform
// random search over exactly the GA's evaluation count.
//
// search.faults.preset fixes a surveillance degradation preset on every
// fitness evaluation. search.faults.evolve=true instead appends the
// degradation profile to each genome, so the GA searches for the
// combination of geometry and sensor faults that defeats avoidance;
// search.faults.penalty=F subtracts F x severity from fitness so mild
// degradations that still produce NMACs outrank brute-force blackouts.
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
	"acasxval/internal/ga"
	"acasxval/internal/search"
	"acasxval/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "casearch:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("casearch", flag.ExitOnError)
	var (
		topK       = flags.Int("top", 10, "number of top archived encounters to report")
		paramsFile = flags.String("params", "", "ECJ-style parameter file of the search spec (key=value arguments override it)")
		outBase    = flags.String("out", "", "artifact base: checkpoint, archive, result and summary go to BASE.<suffix>; an existing BASE"+search.CheckpointSuffix+" resumes")
		baseline   = flags.Bool("baseline", false, "also run the random-search baseline at equal budget")
		seedSweep  = flags.String("seed-from-sweep", "", "seed initial populations from this sweep JSONL")
		workers    = flags.Int("workers", 0, "parallel episode workers per fitness evaluation (0 = NumCPU/islands; results are identical for any count)")
	)
	flags.Parse(args)

	if *workers < 0 {
		return fmt.Errorf("-workers %d < 0", *workers)
	}
	if *topK < 0 {
		return fmt.Errorf("-top %d < 0", *topK)
	}
	spec, err := searchSpec(*paramsFile, flags.Args())
	if err != nil {
		return err
	}
	if *seedSweep != "" {
		seeds, truncated, err := search.SweepSeedsFile(*seedSweep, spec.Islands*spec.GA.PopulationSize)
		if err != nil {
			return err
		}
		if truncated {
			fmt.Fprintf(os.Stderr, "warning: %s ends in a half-written line (writer killed mid-record?); skipped\n", *seedSweep)
		}
		spec.SeedGenomes = seeds
		fmt.Fprintf(stdout, "seeded %d genomes from %s\n", len(seeds), *seedSweep)
	}
	systems, err := campaign.LoadSystems([]string{spec.System})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "GA search: system=%s islands=%d intruders=%d pop/island=%d gens=%d sims/encounter=%d seed=%d\n",
		spec.System, spec.Islands, spec.NumIntruders(), spec.GA.PopulationSize, spec.GA.Generations,
		spec.Fitness.SimsPerEncounter, spec.Seed)
	if spec.Islands > 1 {
		fmt.Fprintf(stdout, "ring migration: %d elites every %d generations\n", spec.MigrationSize, spec.MigrationInterval)
	}
	if spec.EvolveFaults {
		fmt.Fprintf(stdout, "co-evolving surveillance degradation (severity penalty %g)\n", spec.FaultPenalty)
	} else if spec.Fitness.Run.Faults.Enabled() {
		fmt.Fprintf(stdout, "degraded surveillance on every evaluation (severity %.2f)\n", spec.Fitness.Run.Faults.Severity())
	}

	// SIGINT/SIGTERM interrupt the search at the next evaluation boundary;
	// the partial result below still reports the best-so-far, writes the
	// artifacts, and leaves the checkpoint to resume from.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var log []ga.Evaluation
	opts := search.Options{
		EpisodeWorkers: *workers,
		Observer: func(is search.IslandStats) {
			log = append(log, is.Evaluations...)
			label := fmt.Sprintf("  generation %d", is.Stats.Generation)
			if spec.Islands > 1 {
				label += fmt.Sprintf(" island %d", is.Island)
			}
			fmt.Fprintf(stdout, "%s: fitness min %.1f mean %.1f max %.1f\n", label, is.Stats.Min, is.Stats.Mean, is.Stats.Max)
		},
	}
	if *outBase != "" {
		opts.CheckpointPath = *outBase + search.CheckpointSuffix
	}
	res, err := search.RunContext(ctx, spec, systems[spec.System], opts)
	if res == nil {
		return err
	}
	if err != nil {
		fmt.Fprintf(stdout, "\ninterrupted after %d generations (%d evaluations); best fitness so far %.1f\n",
			res.GenerationsRun, res.NumEvaluations, res.Best.Fitness)
		if *outBase != "" {
			fmt.Fprintf(stdout, "rerun with -out %s to resume from %s\n", *outBase, opts.CheckpointPath)
		}
		if werr := writeArtifacts(stdout, *outBase, spec, res); werr != nil {
			return werr
		}
		return err
	}

	if res.Resumed {
		fmt.Fprintf(stdout, "resumed from %s\n", opts.CheckpointPath)
	}
	// NumEvaluations includes pre-checkpoint work on resumed runs, so
	// label the wall clock as this invocation's alone.
	fmt.Fprintf(stdout, "\nsearch time: %v this run; %d encounter evaluations total (%d generations; paper footnote 5: ~300 s)\n",
		res.Elapsed.Round(1e7), res.NumEvaluations, res.GenerationsRun)
	fmt.Fprintf(stdout, "best encounter: island %d generation %d fitness %.1f %s class %s\n",
		res.Best.Island, res.Best.Generation, res.Best.Fitness,
		res.Best.Params, res.Best.Geometry.Category)
	if spec.EvolveFaults {
		fmt.Fprintf(stdout, "best co-evolved degradation: %+v (severity %.2f)\n", res.Best.Fault, res.Best.Fault.Severity())
	}

	fmt.Fprintln(stdout, "\nFig. 6 — fitness per encounter over the search:")
	fmt.Fprint(stdout, viz.RenderFitnessSeries(log, 100, 18))

	fmt.Fprintf(stdout, "\ndanger archive: %d distinct encounters at fitness >= %.0f\n",
		res.Archive.Len(), spec.ArchiveThreshold)
	top := res.Archive.Ranked()
	top = top[:min(*topK, len(top))]
	fmt.Fprintf(stdout, "top %d archived encounters:\n%s", len(top), search.ReportTop(top))
	fmt.Fprintf(stdout, "geometry tally: %s (paper: \"most of them are tail approach situations\")\n",
		search.Tally(top))
	if err := writeArtifacts(stdout, *outBase, spec, res); err != nil {
		return err
	}

	if *baseline {
		fmt.Fprintf(stdout, "\nrandom-search baseline (%d evaluations):\n", res.NumEvaluations)
		rnd, err := search.RandomSearch(ctx, spec, systems[spec.System], res.NumEvaluations)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  GA best fitness:     %.1f\n", res.Best.Fitness)
		fmt.Fprintf(stdout, "  random best fitness: %.1f (in %v)\n", rnd.Best.Fitness, rnd.Elapsed.Round(1e7))
		threshold := res.Best.Fitness * 0.9
		fmt.Fprintf(stdout, "  evaluations to reach fitness %.0f: GA %s, random %s\n", threshold,
			fmtEvals(search.EvaluationsToReach(log, threshold)),
			fmtEvals(search.EvaluationsToReach(rnd.Evaluations, threshold)))
	}
	return nil
}

// searchSpec parses the search spec from the -params file (none: every
// key at its default) overridden by the key=value arguments in order.
// search.islands defaults to 1, the paper's single population, where
// search.FromConfig's default is 4, and search.system to acasx, where the
// service's default is none.
func searchSpec(paramsFile string, args []string) (search.Spec, error) {
	params := config.New()
	if paramsFile != "" {
		var err error
		if params, err = config.Load(paramsFile); err != nil {
			return search.Spec{}, err
		}
	}
	if !params.Has("search.islands") {
		params.Set("search.islands", "1")
	}
	if !params.Has("search.system") {
		params.Set("search.system", "acasx")
	}
	return config.Override(params, args, search.FromConfig)
}

// writeArtifacts writes the search job's artifact set under base, after a
// complete run or an interrupted one: partial archives are as replayable
// as full ones. An empty base writes nothing.
func writeArtifacts(stdout io.Writer, base string, spec search.Spec, res *search.Result) error {
	if base == "" {
		return nil
	}
	artifacts, err := res.Artifacts(spec)
	if err != nil {
		return err
	}
	if err := durable.WriteArtifacts(base, artifacts); err != nil {
		return err
	}
	for _, a := range artifacts {
		fmt.Fprintf(stdout, "wrote %s%s\n", base, a.Suffix)
	}
	return nil
}

func fmtEvals(n int) string {
	if n < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", n)
}
