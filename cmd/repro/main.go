// Command repro runs every experiment of the reproduction (E1-E8 in
// DESIGN.md) and prints a paper-versus-measured record for each reproduced
// figure, table and quantitative claim. The output of this command is the
// source of EXPERIMENTS.md.
//
// Usage:
//
//	repro [-quick] [-exp e1,e2,...] [-seed 1]
//
// -quick reduces the GA and Monte-Carlo budgets (~20x faster, same shapes).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"acasxval/internal/acasx"
	"acasxval/internal/core"
	"acasxval/internal/encounter"
	"acasxval/internal/ga"
	"acasxval/internal/grid2d"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
	"acasxval/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

type harness struct {
	table   *acasx.Table
	quick   bool
	seed    uint64
	factory func() (sim.System, sim.System)
}

func run() error {
	var (
		quick = flag.Bool("quick", false, "reduced budgets (~20x faster, same shapes)")
		exps  = flag.String("exp", "e1,e2,e3,e4,e5,e7,e8,e9", "comma-separated experiments to run")
		seed  = flag.Uint64("seed", 1, "base seed")
	)
	flag.Parse()

	fmt.Println("=== acasxval experiment reproduction (DSN 2016 UAV CAS validation paper) ===")
	cfg := acasx.DefaultConfig()
	cfg.Workers = runtime.NumCPU()
	start := time.Now()
	table, err := acasx.BuildTable(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("logic table built in %v (%d Q entries)\n\n", table.BuildTime(), table.NumEntries())

	h := &harness{
		table: table,
		quick: *quick,
		seed:  *seed,
		factory: func() (sim.System, sim.System) {
			return sim.NewACASXU(table), sim.NewACASXU(table)
		},
	}

	runners := map[string]func() error{
		"e1": h.e1HeadOn,
		"e2": h.e2GASearch,
		"e3": h.e3TailApproach,
		"e4": h.e4Grid2D,
		"e5": h.e5ValueIteration,
		"e7": h.e7GAvsRandom,
		"e8": h.e8MonteCarlo,
		"e9": h.e9ModelRevision,
	}
	for _, name := range strings.Split(*exps, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		fn, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// e1HeadOn reproduces Fig. 5: coordinated head-on avoidance.
func (h *harness) e1HeadOn() error {
	fmt.Println("--- E1 / Fig. 5: head-on encounter, coordinated climb/descend avoids collision ---")
	cfg := sim.DefaultRunConfig()
	cfg.RecordTrajectory = true
	own, intr := h.factory()
	res, err := sim.RunEncounter(encounter.PresetHeadOn(), own, intr, cfg, h.seed)
	if err != nil {
		return err
	}
	nmacAt := -1.0
	if res.NMAC {
		nmacAt = res.NMACTime
	}
	fmt.Print(viz.RenderTrajectories(res.Trajectory, viz.ProfileView, 100, 20, nmacAt))
	senses := "not both alerting simultaneously"
	for _, pt := range res.Trajectory {
		if pt.OwnSense != sim.SenseNone && pt.IntruderSense != sim.SenseNone {
			senses = fmt.Sprintf("own %+d / intruder %+d (complementary)", pt.OwnSense, pt.IntruderSense)
			break
		}
	}
	fmt.Printf("paper:    own-ship climbs, intruder descends by coordination, collision avoided\n")
	fmt.Printf("measured: NMAC=%v, min sep %.1f m, senses %s\n\n", res.NMAC, res.MinSeparation, senses)
	return nil
}

// e2GASearch reproduces Fig. 6: fitness climbing over 5 generations x 200
// population, the paper's single population run as the one-island search.
func (h *harness) e2GASearch() error {
	fmt.Println("--- E2 / Fig. 6: GA fitness improvement over generations ---")
	spec := paperSpec(h.seed)
	if h.quick {
		spec.GA.PopulationSize = 40
		spec.Fitness.SimsPerEncounter = 20
	}
	fmt.Printf("pop=%d gens=%d sims/encounter=%d\n",
		spec.GA.PopulationSize, spec.GA.Generations, spec.Fitness.SimsPerEncounter)
	var log []ga.Evaluation
	res, err := search.RunContext(context.Background(), spec, h.factory, search.Options{Observer: func(is search.IslandStats) {
		log = append(log, is.Evaluations...)
		gs := is.Stats
		fmt.Printf("  generation %d: min %.1f mean %.1f max %.1f\n", gs.Generation, gs.Min, gs.Mean, gs.Max)
	}})
	if err != nil {
		return err
	}
	fmt.Print(viz.RenderFitnessSeries(log, 100, 16))
	history := res.Islands[0]
	first, last := history[0], history[len(history)-1]
	tally := core.Tally(core.TopEncounters(spec.Ranges, log, 20))
	fmt.Printf("paper:    \"in the first generation most encounters are with low fitness, and over generations\n")
	fmt.Printf("           more and more encounters get higher fitness\"; search took ~300 s (footnote 5)\n")
	fmt.Printf("measured: gen0 mean %.1f -> final mean %.1f (max %.1f -> %.1f, best %.1f); %d evaluations in %v\n",
		first.Mean, last.Mean, first.Max, last.Max, res.Best.Fitness, res.NumEvaluations, res.Elapsed.Round(10*time.Millisecond))
	fmt.Printf("          top-%d geometry: %s; dominant: %s\n\n", tally.Total, tally, tally.Dominant())
	return nil
}

// paperSpec is the section VII search: one population of 200 evolved for 5
// generations, 100 simulations per encounter.
func paperSpec(seed uint64) search.Spec {
	spec := search.DefaultSpec()
	spec.Islands = 1
	spec.GA.PopulationSize = 200
	spec.Seed = seed
	return spec
}

// e3TailApproach reproduces Figs. 7-8 and the section VII accident-rate
// contrast.
func (h *harness) e3TailApproach() error {
	fmt.Println("--- E3 / Figs. 7-8: tail-approach vs head-on accident rates ---")
	cfg := montecarlo.DefaultConfig()
	cfg.Samples = 100
	if h.quick {
		cfg.Samples = 50
	}
	cfg.Seed = h.seed
	ctx := context.Background()
	tailModel := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{montecarlo.PointModel(encounter.PresetTailApproach())}}
	tail, err := montecarlo.EvaluateMultiWithScratchContext(ctx, tailModel, h.factory, cfg, nil)
	if err != nil {
		return err
	}
	headModel := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{montecarlo.PointModel(encounter.PresetHeadOn())}}
	head, err := montecarlo.EvaluateMultiWithScratchContext(ctx, headModel, h.factory, cfg, nil)
	if err != nil {
		return err
	}
	// Render one tail-approach run (a Fig. 7/8 style trajectory).
	run := cfg.Run
	run.RecordTrajectory = true
	own, intr := h.factory()
	res, err := sim.RunEncounter(encounter.PresetTailApproach(), own, intr, run, h.seed)
	if err != nil {
		return err
	}
	nmacAt := -1.0
	if res.NMAC {
		nmacAt = res.NMACTime
	}
	fmt.Print(viz.RenderTrajectories(res.Trajectory, viz.ProfileView, 100, 20, nmacAt))
	fmt.Printf("paper:    tail approaches collide in ~80-90 of 100 runs; head-on fewer than 5 of 100;\n")
	fmt.Printf("          cause: \"in a tail approach situation the relative speed is very small, so ... the\n")
	fmt.Printf("          ACAS XU logic still thinks the collision risk is low and does not emit commands\"\n")
	fmt.Printf("measured: tail approach %d/%d NMACs (alert rate %.2f), head-on %d/%d NMACs (alert rate %.2f)\n\n",
		tail.NMACs, tail.Samples, tail.AlertRate, head.NMACs, head.Samples, head.AlertRate)
	return nil
}

// e4Grid2D reproduces the section III worked example.
func (h *harness) e4Grid2D() error {
	fmt.Println("--- E4 / section III: 2-D grid example, logic generated by value iteration ---")
	m, err := grid2d.New(grid2d.DefaultConfig())
	if err != nil {
		return err
	}
	lt, err := grid2d.Solve(m)
	if err != nil {
		return err
	}
	fmt.Print(lt.RenderSlice(0))
	rng := stats.NewRNG(h.seed)
	initial := grid2d.State{YO: 0, XR: 9, YI: 0}
	n := 5000
	if h.quick {
		n = 1000
	}
	baseline := m.CollisionRate(grid2d.AlwaysLevel, initial, n, rng)
	withLogic := m.CollisionRate(lt.Action, initial, n, rng)
	fmt.Printf("paper:    the optimal policy avoids collisions while leveling off when safe (no numbers given)\n")
	fmt.Printf("measured: head-on collision rate %.4f unmitigated -> %.4f with generated logic (%d rollouts)\n\n",
		baseline, withLogic, n)
	return nil
}

// e5ValueIteration reproduces footnote 2: solve time under 5 minutes.
func (h *harness) e5ValueIteration() error {
	fmt.Println("--- E5 / footnote 2: full value iteration solve time ---")
	cfg := acasx.DefaultConfig()
	cfg.Workers = runtime.NumCPU()
	t, err := acasx.BuildTable(cfg)
	if err != nil {
		return err
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	ts, err := acasx.BuildTable(serialCfg)
	if err != nil {
		return err
	}
	fmt.Printf("paper:    \"Value Iteration takes several minutes (less than 5 minutes) on an ordinary laptop PC\"\n")
	fmt.Printf("measured: %v with %d workers, %v serial (%d Q entries)\n\n",
		t.BuildTime().Round(time.Millisecond), cfg.Workers, ts.BuildTime().Round(time.Millisecond), t.NumEntries())
	return nil
}

// e7GAvsRandom reproduces the section V / reference [7] efficiency claim.
func (h *harness) e7GAvsRandom() error {
	fmt.Println("--- E7 / section V: GA search vs uniform random search at equal budget ---")
	spec := paperSpec(h.seed)
	spec.GA.PopulationSize = 40
	spec.Fitness.SimsPerEncounter = 20
	if h.quick {
		spec.GA.PopulationSize = 20
		spec.Fitness.SimsPerEncounter = 10
	}
	const threshold = 9000 // "found a collision case": >= 90% of runs NMAC
	const seeds = 3
	cmp, err := search.CompareSearch(context.Background(), spec, h.factory, seeds, threshold)
	if err != nil {
		return err
	}
	gaFirst, rndFirst := cmp.MedianFirst()
	gaHits, rndHits := cmp.MedianHits()
	fmt.Printf("paper:    \"the proposed approach can find some cases that a random-search-based approach\n")
	fmt.Printf("          took a long time to find\" (shown for SVO in reference [7])\n")
	fmt.Printf("measured: over %d seeds at %d fresh evaluations each (fitness >= %d = collision case):\n",
		seeds, cmp.Budget, threshold)
	fmt.Printf("          evaluations to first case: GA median %.0f, random median %.0f\n", gaFirst, rndFirst)
	fmt.Printf("          collision cases found per budget: GA median %.0f, random median %.0f (%.1fx)\n",
		gaHits, rndHits, cmp.ConcentrationGain())
	fmt.Printf("          (the GA concentrates its budget on the failure region once found; in this\n")
	fmt.Printf("          reproduction the failure region is denser than in [7], so random search also\n")
	fmt.Printf("          finds first cases quickly — the concentration gap is the reproducible signal)\n\n")
	return nil
}

// e9ModelRevision closes the paper's Fig. 1 improvement loop (an extension
// beyond the paper's own evaluation): use the GA discovery to revise the
// model, regenerate, and verify the challenge is resolved.
func (h *harness) e9ModelRevision() error {
	fmt.Println("--- E9 / Fig. 1 loop (extension): model revision driven by the GA discovery ---")
	revCfg := acasx.DefaultConfig()
	revCfg.Workers = runtime.NumCPU()
	revCfg.DMOD = 500
	revCfg.UseVerticalTau = true
	revised, err := acasx.BuildTable(revCfg)
	if err != nil {
		return err
	}
	runs := 100
	if h.quick {
		runs = 40
	}
	measure := func(table *acasx.Table, p encounter.Params) (nmacs, alerted int) {
		cfg := sim.DefaultRunConfig()
		for k := 0; k < runs; k++ {
			res, err := sim.RunEncounter(p,
				sim.NewACASXU(table), sim.NewACASXU(table), cfg, stats.DeriveSeed(h.seed, k))
			if err != nil {
				panic(err)
			}
			if res.NMAC {
				nmacs++
			}
			if res.Alerted() {
				alerted++
			}
		}
		return nmacs, alerted
	}
	tail := encounter.PresetTailApproach()
	headOn := encounter.PresetHeadOn()
	origN, origA := measure(h.table, tail)
	revN, revA := measure(revised, tail)
	headN, _ := measure(revised, headOn)
	fmt.Printf("paper:    \"once identified, ACAS XU developers may be able to use this to improve the MDP\n")
	fmt.Printf("          model and thus improve ACAS XU's effectiveness\" (no revision is performed in-paper)\n")
	fmt.Printf("measured: tail approach with original model: %d/%d NMACs (alert rate %.2f)\n",
		origN, runs, float64(origA)/float64(runs))
	fmt.Printf("          tail approach with revised model (DMOD 500 m + vertical tau): %d/%d NMACs (alert rate %.2f)\n",
		revN, runs, float64(revA)/float64(runs))
	fmt.Printf("          head-on regression check with revised model: %d/%d NMACs\n\n", headN, runs)
	return nil
}

// e8MonteCarlo reproduces the Monte-Carlo validation path with risk ratios.
func (h *harness) e8MonteCarlo() error {
	fmt.Println("--- E8 / section IV: Monte-Carlo risk estimation over the encounter model ---")
	model := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{montecarlo.DefaultEncounterModel()}}
	cfg := montecarlo.DefaultConfig()
	cfg.Seed = h.seed
	cfg.Samples = 2000
	if h.quick {
		cfg.Samples = 400
	}
	ctx := context.Background()
	base, err := montecarlo.EvaluateMultiWithScratchContext(ctx, model, montecarlo.Unequipped, cfg, nil)
	if err != nil {
		return err
	}
	equipped, err := montecarlo.EvaluateMultiWithScratchContext(ctx, model, h.factory, cfg, nil)
	if err != nil {
		return err
	}
	ratio, err := montecarlo.RiskRatio(equipped, base)
	if err != nil {
		return err
	}
	fmt.Printf("paper:    equipped logic should far outperform no-equipage (prototype \"can outperform TCAS\n")
	fmt.Printf("          in term of safety and false alarm rate\"); no absolute numbers for UAV models exist\n")
	fmt.Printf("measured: %d samples/system: P(NMAC) unequipped %.3f [%.3f, %.3f], equipped %.4f [%.4f, %.4f]\n",
		cfg.Samples, base.PNMAC, base.PNMACCI.Lo, base.PNMACCI.Hi,
		equipped.PNMAC, equipped.PNMACCI.Lo, equipped.PNMACCI.Hi)
	fmt.Printf("          risk ratio %.4f, equipped alert rate %.2f, mean alerts per encounter %.2f\n\n",
		ratio, equipped.AlertRate, equipped.MeanAlerts)
	return nil
}
