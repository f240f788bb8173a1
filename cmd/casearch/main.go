// Command casearch runs the paper's section VII experiment: the GA-based
// search for challenging situations where ACAS XU behaves poorly. With the
// default settings it reproduces the paper-scale workload — population 200
// evolved for 5 generations, every encounter scored by 100 stochastic
// simulations — and reports the Fig. 6 fitness series, the wall-clock time
// (paper footnote 5: ~300 s), and the geometry analysis of the discovered
// encounters (Figs. 7-8: tail approaches dominate).
//
// With -islands N (N >= 2) the search runs on the island-model engine
// instead: N concurrently evolving populations (-pop is then the per-island
// population) exchanging elites via ring migration, accumulating a
// deduplicated danger archive (-archive), checkpointing after every
// generation (-checkpoint) so a killed run resumes bit-identically
// (-resume), and optionally seeding its initial populations from the worst
// cells of a prior sweep's JSONL output (-seed-from-sweep). The classic
// single-population serial path is preserved behind -islands 1 (the
// default when no spec file sets search.islands).
//
// Usage:
//
//	casearch [-table table.acxt] [-pop 200] [-gens 5] [-sims 100]
//	         [-seed 1] [-top 10] [-system <name>]
//	         [-params ecj.params] [-fitness-csv fig6.csv]
//	         [-baseline] [-clusters 3]
//	         [-islands N] [-intruders K] [-checkpoint state.json] [-resume]
//	         [-seed-from-sweep results.jsonl] [-archive danger.jsonl]
//	         [-migrate-every K] [-migrants M] [-threshold F] [-mindist D]
//	         [-episode-workers W] [-faults <preset>]
//	         [-evolve-faults] [-fault-penalty F]
//
// -faults fixes a surveillance degradation preset on every fitness
// evaluation (both engines). -evolve-faults (island engine only) instead
// appends the degradation profile to each genome, so the GA searches for
// the combination of geometry and sensor faults that defeats avoidance;
// -fault-penalty F subtracts F x severity from fitness so mild
// degradations that still produce NMACs outrank brute-force blackouts.
//
// -islands 0 (the default) takes the island count from -params'
// search.islands key (1 when no file is given), so a spec file declaring
// an island search runs as one without repeating the count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"acasxval/internal/acasx"
	"acasxval/internal/campaign"
	"acasxval/internal/cli"
	"acasxval/internal/config"
	"acasxval/internal/core"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/search"
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
		system     = flag.String("system", "acasx", "system under test: "+cli.SystemNames())
		pop        = flag.Int("pop", 200, "GA population size (paper: 200; per island when -islands >= 2)")
		gens       = flag.Int("gens", 5, "GA generations (paper: 5)")
		sims       = flag.Int("sims", 100, "simulations per encounter (paper: 100)")
		seed       = flag.Uint64("seed", 1, "search seed")
		topK       = flag.Int("top", 10, "number of top encounters to report")
		paramsFile = flag.String("params", "", "ECJ-style parameter file overriding GA/search settings")
		fitnessCSV = flag.String("fitness-csv", "", "write the Fig. 6 evaluation log as CSV (serial path only)")
		foundCSV   = flag.String("found-csv", "", "write the top encounters as CSV (serial path only)")
		baseline   = flag.Bool("baseline", false, "also run the random-search baseline at equal budget (serial path only)")
		clusters   = flag.Int("clusters", 0, "cluster the high-fitness encounters into K groups (serial path only)")

		islandsFlag = flag.Int("islands", 0, "island count: 1 runs the classic serial search, >= 2 the island engine, 0 takes -params' search.islands (default 1)")
		intruders   = flag.Int("intruders", 0, "island engine: intruders K per evolved encounter (genome length K*9; 0 = spec default, i.e. pairwise)")
		checkpoint  = flag.String("checkpoint", "", "island engine: checkpoint file written after every generation")
		resume      = flag.Bool("resume", false, "island engine: resume from -checkpoint instead of starting fresh")
		seedSweep   = flag.String("seed-from-sweep", "", "island engine: seed initial populations from this sweep JSONL")
		archiveOut  = flag.String("archive", "", "island engine: write the danger archive as JSONL to this file")
		migEvery    = flag.Int("migrate-every", 0, "island engine: generations between ring migrations (0 = spec default)")
		migrants    = flag.Int("migrants", 0, "island engine: elites migrated to the ring successor (0 = spec default)")
		threshold   = flag.Float64("threshold", -1, "island engine: archive fitness threshold (-1 = spec default)")
		minDist     = flag.Float64("mindist", -1, "island engine: archive dedup distance in [0, 1] (-1 = spec default)")
		epWorkers   = flag.Int("episode-workers", 0, "island engine: parallel episode workers per fitness evaluation (0 = NumCPU/islands; results are identical for any count)")

		faultsFlag   = flag.String("faults", "", "fixed surveillance degradation preset for every evaluation: "+cli.FaultNames()+" (empty = clean)")
		evolveFaults = flag.Bool("evolve-faults", false, "island engine: co-evolve the degradation profile with the encounter geometry")
		faultPenalty = flag.Float64("fault-penalty", 0, "island engine: severity parsimony weight subtracted from co-evolved fitness")
	)
	flag.Parse()

	if *islandsFlag < 0 {
		return fmt.Errorf("-islands %d < 0", *islandsFlag)
	}
	set := setFlags()
	// Out-of-range values for the island-engine tuning flags must error,
	// not silently fall back to the spec defaults their sentinels encode.
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
	// The params file is loaded once here and shared by both paths.
	var params *config.Params
	if *paramsFile != "" {
		loaded, err := config.Load(*paramsFile)
		if err != nil {
			return err
		}
		params = loaded
	}
	// -islands 0 (the default) defers to the -params file's search.islands
	// key, so a spec file declaring an island search runs as one without
	// repeating the count on the command line.
	islands := *islandsFlag
	if islands == 0 {
		islands = 1
		if params != nil {
			var err error
			if islands, err = params.IntOr("search.islands", 1); err != nil {
				return err
			}
			if islands < 1 {
				return fmt.Errorf("%s: search.islands %d < 1", *paramsFile, islands)
			}
		}
	}
	if islands >= 2 {
		if err := rejectFlags("requires the serial search (-islands 1)", []flagUse{
			{"fitness-csv", *fitnessCSV != ""},
			{"found-csv", *foundCSV != ""},
			{"baseline", *baseline},
			{"clusters", *clusters > 0},
		}); err != nil {
			return err
		}
		return runIslands(islandArgs{
			tablePath: *tablePath, coarse: *coarse, system: *system,
			pop: *pop, gens: *gens, sims: *sims, seed: *seed, topK: *topK,
			params: params, paramsFile: *paramsFile, set: set, islands: islands,
			intruders:  *intruders,
			checkpoint: *checkpoint, resume: *resume, seedSweep: *seedSweep,
			archiveOut: *archiveOut, migEvery: *migEvery, migrants: *migrants,
			threshold: *threshold, minDist: *minDist, epWorkers: *epWorkers,
			faults: *faultsFlag, evolveFaults: *evolveFaults, faultPenalty: *faultPenalty,
		})
	}
	if err := rejectFlags("requires the island engine (-islands >= 2)", []flagUse{
		{"checkpoint", *checkpoint != ""},
		{"resume", *resume},
		{"seed-from-sweep", *seedSweep != ""},
		{"archive", *archiveOut != ""},
		{"migrate-every", set["migrate-every"]},
		{"migrants", set["migrants"]},
		{"threshold", set["threshold"]},
		{"mindist", set["mindist"]},
		{"episode-workers", set["episode-workers"]},
		{"intruders", set["intruders"] && *intruders > 1},
		{"evolve-faults", *evolveFaults},
		{"fault-penalty", set["fault-penalty"]},
	}); err != nil {
		return err
	}
	// The serial path evolves the classic pairwise genome only; a spec file
	// declaring a K-intruder or fault-co-evolving search must run on the
	// island engine.
	if params != nil {
		k, err := params.IntOr("search.intruders", 0)
		if err != nil {
			return err
		}
		if k > 1 {
			return fmt.Errorf("%s: search.intruders %d requires the island engine (-islands >= 2, or a search.islands key)", *paramsFile, k)
		}
		evolve, err := params.BoolOr("search.faults.evolve", false)
		if err != nil {
			return err
		}
		if evolve {
			return fmt.Errorf("%s: search.faults.evolve requires the island engine (-islands >= 2, or a search.islands key)", *paramsFile)
		}
	}

	cfg := core.DefaultSearchConfig()
	cfg.GA.PopulationSize = *pop
	cfg.GA.Generations = *gens
	cfg.GA.Seed = *seed
	cfg.Fitness.SimsPerEncounter = *sims
	if params != nil {
		gaParams, err := ga.FromConfig(params)
		if err != nil {
			return err
		}
		cfg.GA = gaParams
		// search.sims means the same per-encounter budget on both paths.
		if cfg.Fitness.SimsPerEncounter, err = params.IntOr("search.sims", cfg.Fitness.SimsPerEncounter); err != nil {
			return err
		}
		// Explicitly-set flags override the file, same precedence as the
		// island path.
		if set["pop"] {
			cfg.GA.PopulationSize = *pop
		}
		if set["gens"] {
			cfg.GA.Generations = *gens
		}
		if set["sims"] {
			cfg.Fitness.SimsPerEncounter = *sims
		}
		if set["seed"] {
			cfg.GA.Seed = *seed
		}
		// A fixed degradation profile from the file applies to the serial
		// path too; the flag below overrides it.
		if cfg.Fitness.Run.Faults, err = fault.FromConfig(params, "search.faults."); err != nil {
			return fmt.Errorf("%s: %w", *paramsFile, err)
		}
	}
	if *faultsFlag != "" {
		p, err := cli.FaultProfile(*faultsFlag)
		if err != nil {
			return err
		}
		cfg.Fitness.Run.Faults = p
		fmt.Printf("degraded surveillance: %s profile on every evaluation\n", *faultsFlag)
	}

	table, err := maybeTable(*system, *tablePath, *coarse)
	if err != nil {
		return err
	}
	sysFactory, err := cli.SystemFactory(*system, table)
	if err != nil {
		return err
	}

	fmt.Printf("GA search: system=%s pop=%d gens=%d sims/encounter=%d seed=%d\n",
		*system, cfg.GA.PopulationSize, cfg.GA.Generations, cfg.Fitness.SimsPerEncounter, cfg.GA.Seed)

	res, err := core.Search(cfg, sysFactory, *topK, func(gs ga.GenerationStats) {
		fmt.Printf("  generation %d: fitness min %.1f mean %.1f max %.1f\n",
			gs.Generation, gs.Min, gs.Mean, gs.Max)
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nsearch time: %v over %d encounter evaluations (paper footnote 5: ~300 s)\n",
		res.Elapsed.Round(1e7), res.NumEvaluations)

	fmt.Println("\nFig. 6 — fitness per encounter over the search:")
	fmt.Print(viz.RenderFitnessSeries(res.Evaluations, cfg.GA.PopulationSize, 100, 18))

	fmt.Printf("\ntop %d challenging encounters:\n%s", len(res.Top), core.ReportTop(res.Top))
	tally := core.Tally(res.Top)
	fmt.Printf("geometry tally: %s\n", tally)
	fmt.Printf("dominant class: %s (paper: \"most of them are tail approach situations\")\n",
		tally.Dominant())

	if *fitnessCSV != "" {
		f, err := os.Create(*fitnessCSV)
		if err != nil {
			return err
		}
		if err := viz.WriteFitnessCSV(f, res.Evaluations); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote evaluation log to %s\n", *fitnessCSV)
	}

	if *foundCSV != "" {
		f, err := os.Create(*foundCSV)
		if err != nil {
			return err
		}
		if err := core.WriteFound(f, res.Top); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote top encounters to %s\n", *foundCSV)
	}

	if *clusters > 0 {
		cs, err := core.ClusterEvaluations(cfg.Ranges, res.Evaluations, *clusters,
			res.Best.Fitness/2, cfg.GA.Seed)
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
		rnd, err := core.RandomSearch(cfg, sysFactory, res.NumEvaluations, true)
		if err != nil {
			return err
		}
		fmt.Printf("  GA best fitness:     %.1f\n", res.Best.Fitness)
		fmt.Printf("  random best fitness: %.1f (in %v)\n", rnd.Best.Fitness, rnd.Elapsed.Round(1e7))
		threshold := res.Best.Fitness * 0.9
		gaAt := core.EvaluationsToReach(res.Evaluations, threshold)
		rndAt := core.EvaluationsToReach(rnd.Evaluations, threshold)
		fmt.Printf("  evaluations to reach fitness %.0f: GA %s, random %s\n",
			threshold, fmtEvals(gaAt), fmtEvals(rndAt))
	}
	return nil
}

// flagUse pairs a flag name with whether it was meaningfully set.
type flagUse struct {
	name string
	set  bool
}

// rejectFlags errors on the first (declaration-ordered, so deterministic)
// flag that does not apply to the selected search path.
func rejectFlags(why string, flags []flagUse) error {
	for _, f := range flags {
		if f.set {
			return fmt.Errorf("-%s %s", f.name, why)
		}
	}
	return nil
}

// setFlags reports which flags were explicitly passed on the command line.
func setFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// islandArgs carries the resolved flag values (and the already-loaded
// params file, when given) into the island-engine path.
type islandArgs struct {
	tablePath, system, paramsFile     string
	params                            *config.Params
	set                               map[string]bool
	coarse                            bool
	pop, gens, sims, topK, islands    int
	intruders                         int
	seed                              uint64
	checkpoint, seedSweep, archiveOut string
	resume                            bool
	migEvery, migrants, epWorkers     int
	threshold, minDist                float64
	faults                            string
	evolveFaults                      bool
	faultPenalty                      float64
}

// runIslands drives the island-model engine: spec from defaults or -params,
// explicit flags overriding, optional sweep seeding, checkpoint/resume, and
// the danger archive written as JSONL.
func runIslands(a islandArgs) error {
	spec := search.DefaultSpec()
	if a.params != nil {
		loaded, err := search.FromConfig(a.params)
		if err != nil {
			return fmt.Errorf("%s: %w", a.paramsFile, err)
		}
		spec = loaded
	}
	// Without a spec file the flags (at their defaults or not) define the
	// search; with one, only explicitly-set flags override it.
	if a.params == nil || a.set["pop"] {
		spec.GA.PopulationSize = a.pop
	}
	if a.params == nil || a.set["gens"] {
		spec.GA.Generations = a.gens
	}
	if a.params == nil || a.set["sims"] {
		spec.Fitness.SimsPerEncounter = a.sims
	}
	if a.params == nil || a.set["seed"] {
		spec.Seed = a.seed
	}
	spec.Islands = a.islands
	if a.set["intruders"] {
		spec.Intruders = a.intruders
	}
	if a.set["migrate-every"] {
		spec.MigrationInterval = a.migEvery
	}
	if a.set["migrants"] {
		spec.MigrationSize = a.migrants
	}
	if a.set["threshold"] {
		spec.ArchiveThreshold = a.threshold
	}
	if a.set["mindist"] {
		spec.ArchiveMinDistance = a.minDist
	}
	if a.faults != "" {
		p, err := cli.FaultProfile(a.faults)
		if err != nil {
			return err
		}
		spec.Fitness.Run.Faults = p
	}
	if a.set["evolve-faults"] {
		spec.EvolveFaults = a.evolveFaults
	}
	if a.set["fault-penalty"] {
		spec.FaultPenalty = a.faultPenalty
	}
	if a.seedSweep != "" {
		seeds, err := search.SweepSeedsFile(a.seedSweep, spec.Islands*spec.GA.PopulationSize)
		if err != nil {
			return err
		}
		spec.SeedGenomes = seeds
		fmt.Printf("seeded %d genomes from %s\n", len(seeds), a.seedSweep)
	}

	table, err := maybeTable(a.system, a.tablePath, a.coarse)
	if err != nil {
		return err
	}
	sysFactory, err := cli.SystemFactory(a.system, table)
	if err != nil {
		return err
	}

	fmt.Printf("island search: system=%s islands=%d intruders=%d pop/island=%d gens=%d sims/encounter=%d seed=%d migration=%d every %d\n",
		a.system, spec.Islands, spec.NumIntruders(), spec.GA.PopulationSize, spec.GA.Generations,
		spec.Fitness.SimsPerEncounter, spec.Seed, spec.MigrationSize, spec.MigrationInterval)
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

	lastGen := -1
	res, err := search.RunContext(ctx, spec, sysFactory, search.Options{
		CheckpointPath: a.checkpoint,
		Resume:         a.resume,
		EpisodeWorkers: a.epWorkers,
		Observer: func(is search.IslandStats) {
			if is.Stats.Generation != lastGen {
				lastGen = is.Stats.Generation
				fmt.Printf("  generation %d:\n", lastGen)
			}
			fmt.Printf("    island %d: fitness min %.1f mean %.1f max %.1f\n",
				is.Island, is.Stats.Min, is.Stats.Mean, is.Stats.Max)
		},
	})
	if err != nil {
		if res == nil {
			return err
		}
		fmt.Printf("\ninterrupted after %d generations (%d evaluations); best fitness so far %.1f\n",
			res.GenerationsRun, res.NumEvaluations, res.Best.Fitness)
		if a.checkpoint != "" {
			fmt.Printf("resume with -resume -checkpoint %s\n", a.checkpoint)
		}
		if a.archiveOut != "" {
			if aerr := writeArchiveOut(a.archiveOut, res, spec.ArchiveThreshold); aerr != nil {
				return aerr
			}
		}
		return err
	}

	if res.Resumed {
		fmt.Printf("resumed from %s\n", a.checkpoint)
	}
	// NumEvaluations includes pre-checkpoint work on resumed runs, so
	// label the wall clock as this invocation's alone.
	fmt.Printf("\nsearch time: %v this run; %d encounter evaluations total (%d generations)\n",
		res.Elapsed.Round(1e7), res.NumEvaluations, res.GenerationsRun)
	fmt.Printf("best encounter: island %d generation %d fitness %.1f %s class %s\n",
		res.Best.Island, res.Best.Generation, res.Best.Fitness,
		res.Best.Params, res.Best.Geometry.Category)
	if spec.EvolveFaults {
		fmt.Printf("best co-evolved degradation: %+v (severity %.2f)\n", res.Best.Fault, res.Best.Fault.Severity())
	}

	archived := res.Archive.Len()
	fmt.Printf("\ndanger archive: %d distinct encounters at fitness >= %.0f\n",
		archived, spec.ArchiveThreshold)
	ranked := res.Archive.Entries() // a copy; sorting cannot disturb the archive
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Fitness > ranked[j].Fitness })
	top := a.topK
	if top < 0 {
		top = 0
	}
	if top > len(ranked) {
		top = len(ranked)
	}
	for _, e := range ranked[:top] {
		fmt.Printf("  %s: fitness %.1f P(NMAC) %.2f %s\n", e.Name, e.Fitness, e.PNMAC, e.Geometry)
	}

	if a.archiveOut != "" {
		if err := writeArchiveOut(a.archiveOut, res, spec.ArchiveThreshold); err != nil {
			return err
		}
	}
	return nil
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Archive.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
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
