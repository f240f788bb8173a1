// Command casearch runs the paper's section VII experiment: the GA-based
// search for challenging situations where ACAS XU behaves poorly. With the
// default settings it reproduces the paper-scale workload — one population
// of 200 evolved for 5 generations, every encounter scored by 100
// stochastic simulations — and reports the Fig. 6 fitness series, the
// wall-clock time (paper footnote 5: ~300 s), and the geometry analysis of
// the discovered encounters (Figs. 7-8: tail approaches dominate).
//
// Every run goes through the island-model engine (internal/search); the
// paper's GA is its one-island case. With -islands N (N >= 2), N
// populations (-pop is per island) evolve concurrently and exchange elites
// via ring migration. Every run accumulates a deduplicated danger archive
// (-archive), can checkpoint after every generation (-checkpoint) so a
// killed run resumes bit-identically (-resume), and can seed its initial
// populations from the worst cells of a prior sweep's JSONL output
// (-seed-from-sweep). -intruders K evolves K-intruder encounters.
//
// Usage:
//
//	casearch [-table table.acxt] [-pop 200] [-gens 5] [-sims 100]
//	         [-seed 1] [-top 10] [-system <name>]
//	         [-params ecj.params] [-fitness-csv fig6.csv]
//	         [-found-csv top.csv] [-baseline] [-clusters 3]
//	         [-islands N] [-intruders K] [-checkpoint state.json] [-resume]
//	         [-seed-from-sweep results.jsonl] [-archive danger.jsonl]
//	         [-migrate-every K] [-migrants M] [-threshold F] [-mindist D]
//	         [-episode-workers W] [-faults <preset>]
//	         [-evolve-faults] [-fault-penalty F]
//
// The reports built from the evaluation log (-top, -fitness-csv,
// -found-csv, -clusters) list each fresh evaluation once: elites and
// migrants carried into a later generation are not simulated again. On a
// resumed run the log covers this invocation's generations. Encounters
// with more than one intruder are tabulated by their first intruder block;
// the danger archive keeps all K. -baseline runs the uniform random search
// over exactly the GA's evaluation count.
//
// -faults fixes a surveillance degradation preset on every fitness
// evaluation. -evolve-faults instead appends the degradation profile to
// each genome, so the GA searches for the combination of geometry and
// sensor faults that defeats avoidance; -fault-penalty F subtracts F x
// severity from fitness so mild degradations that still produce NMACs
// outrank brute-force blackouts.
//
// -islands 0 (the default) takes the island count from -params'
// search.islands key (1 when the key or the file is absent).
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

	"acasxval/internal/acasx"
	"acasxval/internal/campaign"
	"acasxval/internal/cli"
	"acasxval/internal/config"
	"acasxval/internal/core"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/search"
	"acasxval/internal/sys"
	"acasxval/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "casearch:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		tablePath  = flag.String("table", "", "logic table path (built on the fly when absent)")
		coarse     = flag.Bool("coarse", false, "use the reduced-resolution table when building")
		system     = flag.String("system", "acasx", "system under test: "+sys.NamesList())
		pop        = flag.Int("pop", 200, "GA population size per island (paper: 200)")
		gens       = flag.Int("gens", 5, "GA generations (paper: 5)")
		sims       = flag.Int("sims", 100, "simulations per encounter (paper: 100)")
		seed       = flag.Uint64("seed", 1, "search seed")
		topK       = flag.Int("top", 10, "number of top encounters to report")
		paramsFile = flag.String("params", "", "ECJ-style parameter file overriding GA/search settings")
		fitnessCSV = flag.String("fitness-csv", "", "write the Fig. 6 evaluation log as CSV")
		foundCSV   = flag.String("found-csv", "", "write the top encounters as CSV")
		baseline   = flag.Bool("baseline", false, "also run the random-search baseline at equal budget")
		clusters   = flag.Int("clusters", 0, "cluster the high-fitness encounters into K groups")

		islandsFlag = flag.Int("islands", 0, "island count (0 = -params' search.islands, default 1: the paper's single population)")
		intruders   = flag.Int("intruders", 0, "intruders K per evolved encounter (genome length K*9; 0 = spec default, i.e. pairwise)")
		checkpoint  = flag.String("checkpoint", "", "checkpoint file written after every generation")
		resume      = flag.Bool("resume", false, "resume from -checkpoint instead of starting fresh")
		seedSweep   = flag.String("seed-from-sweep", "", "seed initial populations from this sweep JSONL")
		archiveOut  = flag.String("archive", "", "write the danger archive as JSONL to this file")
		migEvery    = flag.Int("migrate-every", 0, "generations between ring migrations (0 = spec default)")
		migrants    = flag.Int("migrants", 0, "elites migrated to the ring successor (0 = spec default)")
		threshold   = flag.Float64("threshold", -1, "archive fitness threshold (-1 = spec default)")
		minDist     = flag.Float64("mindist", -1, "archive dedup distance in [0, 1] (-1 = spec default)")
		epWorkers   = flag.Int("episode-workers", 0, "parallel episode workers per fitness evaluation (0 = NumCPU/islands; results are identical for any count)")

		faultsFlag   = flag.String("faults", "", "fixed surveillance degradation preset for every evaluation: "+strings.Join(fault.PresetNames(), ", ")+" (empty = clean)")
		evolveFaults = flag.Bool("evolve-faults", false, "co-evolve the degradation profile with the encounter geometry")
		faultPenalty = flag.Float64("fault-penalty", 0, "severity parsimony weight subtracted from co-evolved fitness")
	)
	flag.Parse()

	if *islandsFlag < 0 {
		return fmt.Errorf("-islands %d < 0", *islandsFlag)
	}
	set := setFlags()
	// Out-of-range values for the tuning flags must error, not silently
	// fall back to the spec defaults their sentinels encode.
	if set["migrate-every"] && *migEvery < 1 {
		return fmt.Errorf("-migrate-every %d < 1", *migEvery)
	}
	if set["migrants"] && *migrants < 0 {
		return fmt.Errorf("-migrants %d < 0", *migrants)
	}
	if set["threshold"] && *threshold < 0 {
		return fmt.Errorf("-threshold %v < 0", *threshold)
	}
	if set["mindist"] && (*minDist < 0 || *minDist > 1) {
		return fmt.Errorf("-mindist %v outside [0, 1]", *minDist)
	}
	if *epWorkers < 0 {
		return fmt.Errorf("-episode-workers %d < 0", *epWorkers)
	}
	if set["intruders"] && *intruders < 1 {
		return fmt.Errorf("-intruders %d < 1", *intruders)
	}
	if set["fault-penalty"] && *faultPenalty < 0 {
		return fmt.Errorf("-fault-penalty %v < 0", *faultPenalty)
	}

	spec := search.DefaultSpec()
	islands := 1
	if *paramsFile != "" {
		params, err := config.Load(*paramsFile)
		if err != nil {
			return err
		}
		if spec, err = search.FromConfig(params); err != nil {
			return fmt.Errorf("%s: %w", *paramsFile, err)
		}
		if islands, err = params.IntOr("search.islands", 1); err != nil {
			return err
		}
	}
	if *islandsFlag > 0 {
		islands = *islandsFlag
	}
	spec.Islands = islands
	// Without a spec file the flags (at their defaults or not) define the
	// search; with one, only explicitly-set flags override it.
	if *paramsFile == "" || set["pop"] {
		spec.GA.PopulationSize = *pop
	}
	if *paramsFile == "" || set["gens"] {
		spec.GA.Generations = *gens
	}
	if *paramsFile == "" || set["sims"] {
		spec.Fitness.SimsPerEncounter = *sims
	}
	if *paramsFile == "" || set["seed"] {
		spec.Seed = *seed
	}
	if set["intruders"] {
		spec.Intruders = *intruders
	}
	if set["migrate-every"] {
		spec.MigrationInterval = *migEvery
	}
	if set["migrants"] {
		spec.MigrationSize = *migrants
	}
	if set["threshold"] {
		spec.ArchiveThreshold = *threshold
	}
	if set["mindist"] {
		spec.ArchiveMinDistance = *minDist
	}
	if *faultsFlag != "" {
		p, err := fault.Resolve(*faultsFlag)
		if err != nil {
			return err
		}
		spec.Fitness.Run.Faults = p
	}
	if set["evolve-faults"] {
		spec.EvolveFaults = *evolveFaults
	}
	if set["fault-penalty"] {
		spec.FaultPenalty = *faultPenalty
	}
	if *seedSweep != "" {
		seeds, err := search.SweepSeedsFile(*seedSweep, spec.Islands*spec.GA.PopulationSize)
		if err != nil {
			return err
		}
		spec.SeedGenomes = seeds
		fmt.Printf("seeded %d genomes from %s\n", len(seeds), *seedSweep)
	}

	table, err := maybeTable(*system, *tablePath, *coarse)
	if err != nil {
		return err
	}
	sysFactory, err := sys.PairFactory(sys.Context{Table: table}, sys.Spec{Name: *system})
	if err != nil {
		return err
	}

	fmt.Printf("GA search: system=%s islands=%d intruders=%d pop/island=%d gens=%d sims/encounter=%d seed=%d\n",
		*system, spec.Islands, spec.NumIntruders(), spec.GA.PopulationSize, spec.GA.Generations,
		spec.Fitness.SimsPerEncounter, spec.Seed)
	if spec.Islands > 1 {
		fmt.Printf("ring migration: %d elites every %d generations\n", spec.MigrationSize, spec.MigrationInterval)
	}
	if spec.EvolveFaults {
		fmt.Printf("co-evolving surveillance degradation (severity penalty %g)\n", spec.FaultPenalty)
	} else if spec.Fitness.Run.Faults.Enabled() {
		fmt.Printf("degraded surveillance on every evaluation (severity %.2f)\n", spec.Fitness.Run.Faults.Severity())
	}

	// SIGINT/SIGTERM interrupt the search at the next evaluation boundary;
	// the partial result below still reports the best-so-far, flushes the
	// archive, and points at the checkpoint to resume from.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var log []ga.Evaluation
	res, err := search.RunContext(ctx, spec, sysFactory, search.Options{
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		EpisodeWorkers: *epWorkers,
		Observer: func(is search.IslandStats) {
			log = append(log, is.Evaluations...)
			label := fmt.Sprintf("  generation %d", is.Stats.Generation)
			if spec.Islands > 1 {
				label += fmt.Sprintf(" island %d", is.Island)
			}
			fmt.Printf("%s: fitness min %.1f mean %.1f max %.1f\n", label, is.Stats.Min, is.Stats.Mean, is.Stats.Max)
		},
	})
	if err != nil {
		if res == nil {
			return err
		}
		fmt.Printf("\ninterrupted after %d generations (%d evaluations); best fitness so far %.1f\n",
			res.GenerationsRun, res.NumEvaluations, res.Best.Fitness)
		if *checkpoint != "" {
			fmt.Printf("resume with -resume -checkpoint %s\n", *checkpoint)
		}
		if *archiveOut != "" {
			if aerr := writeArchiveOut(*archiveOut, res, spec.ArchiveThreshold); aerr != nil {
				return aerr
			}
		}
		return err
	}

	if res.Resumed {
		fmt.Printf("resumed from %s\n", *checkpoint)
	}
	// NumEvaluations includes pre-checkpoint work on resumed runs, so
	// label the wall clock as this invocation's alone.
	fmt.Printf("\nsearch time: %v this run; %d encounter evaluations total (%d generations; paper footnote 5: ~300 s)\n",
		res.Elapsed.Round(1e7), res.NumEvaluations, res.GenerationsRun)
	fmt.Printf("best encounter: island %d generation %d fitness %.1f %s class %s\n",
		res.Best.Island, res.Best.Generation, res.Best.Fitness,
		res.Best.Params, res.Best.Geometry.Category)
	if spec.EvolveFaults {
		fmt.Printf("best co-evolved degradation: %+v (severity %.2f)\n", res.Best.Fault, res.Best.Fault.Severity())
	}

	fmt.Println("\nFig. 6 — fitness per encounter over the search:")
	fmt.Print(viz.RenderFitnessSeries(log, 100, 18))

	top := core.TopEncounters(spec.Ranges, log, *topK)
	fmt.Printf("\ntop %d challenging encounters:\n%s", len(top), core.ReportTop(top))
	tally := core.Tally(top)
	fmt.Printf("geometry tally: %s\n", tally)
	fmt.Printf("dominant class: %s (paper: \"most of them are tail approach situations\")\n",
		tally.Dominant())
	fmt.Printf("\ndanger archive: %d distinct encounters at fitness >= %.0f\n",
		res.Archive.Len(), spec.ArchiveThreshold)

	if *fitnessCSV != "" {
		if err := writeFile(*fitnessCSV, func(w io.Writer) error { return viz.WriteFitnessCSV(w, log) }); err != nil {
			return err
		}
		fmt.Printf("wrote evaluation log to %s\n", *fitnessCSV)
	}
	if *foundCSV != "" {
		if err := writeFile(*foundCSV, func(w io.Writer) error { return core.WriteFound(w, top) }); err != nil {
			return err
		}
		fmt.Printf("wrote top encounters to %s\n", *foundCSV)
	}
	if *archiveOut != "" {
		if err := writeArchiveOut(*archiveOut, res, spec.ArchiveThreshold); err != nil {
			return err
		}
	}

	if *clusters > 0 {
		cs, err := core.ClusterEvaluations(spec.Ranges, log, *clusters, res.Best.Fitness/2, spec.Seed)
		if err != nil {
			fmt.Printf("clustering skipped: %v\n", err)
		} else {
			fmt.Printf("\n%d clusters of high-fitness encounters:\n", len(cs))
			for i, c := range cs {
				fmt.Printf("  cluster %d: %d members, mean fitness %.1f, center %s\n",
					i+1, len(c.Members), c.MeanFitness, c.Center)
			}
		}
	}

	if *baseline {
		fmt.Printf("\nrandom-search baseline (%d evaluations):\n", res.NumEvaluations)
		rnd, err := search.RandomSearch(ctx, spec, sysFactory, res.NumEvaluations)
		if err != nil {
			return err
		}
		fmt.Printf("  GA best fitness:     %.1f\n", res.Best.Fitness)
		fmt.Printf("  random best fitness: %.1f (in %v)\n", rnd.Best.Fitness, rnd.Elapsed.Round(1e7))
		threshold := res.Best.Fitness * 0.9
		fmt.Printf("  evaluations to reach fitness %.0f: GA %s, random %s\n", threshold,
			fmtEvals(search.EvaluationsToReach(log, threshold)),
			fmtEvals(search.EvaluationsToReach(rnd.Evaluations, threshold)))
	}
	return nil
}

// setFlags reports which flags were explicitly passed on the command line.
func setFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeArchiveOut flushes the danger archive as JSONL — after a complete
// run or an interrupted one; partial archives are as replayable as full
// ones.
func writeArchiveOut(path string, res *search.Result, threshold float64) error {
	if res.Archive.Len() == 0 {
		// sweep -extra rejects empty archives; don't leave one behind
		// with an instruction to replay it.
		fmt.Printf("danger archive is empty (no encounter reached fitness %.0f); not writing %s\n",
			threshold, path)
		return nil
	}
	if err := writeFile(path, res.Archive.WriteJSONL); err != nil {
		return err
	}
	fmt.Printf("wrote danger archive to %s (replayable with sweep -extra)\n", path)
	return nil
}

func fmtEvals(n int) string {
	if n < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", n)
}

// maybeTable builds/loads the table only when the system needs one.
func maybeTable(system, path string, coarse bool) (*acasx.Table, error) {
	if !campaign.NeedsTable(system) {
		return nil, nil
	}
	return cli.LoadOrBuildTable(path, coarse, 0)
}
