// Fig. 6 reproduction at example scale: run the GA-based challenging
// situation search against the equipped system and watch the fitness climb
// over generations; then classify the discovered encounters (the paper
// found "most of them are tail approach situations").
package main

import (
	"context"
	"fmt"
	"log"

	"acasxval"
	"acasxval/internal/core"
	"acasxval/internal/viz"
)

func main() {
	tableCfg := acasxval.DefaultTableConfig()
	tableCfg.Workers = 8
	table, err := acasxval.BuildLogicTable(tableCfg)
	if err != nil {
		log.Fatal(err)
	}
	factory, err := acasxval.NewSystemFactory(acasxval.SystemContext{Table: table}, acasxval.SystemSpec{Name: "acasx"})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's GA is the one-island search. Example scale: the paper's
	// full workload is pop=200, gens=5, sims=100 (see cmd/casearch).
	spec := acasxval.DefaultSearchSpec()
	spec.Islands = 1
	spec.GA.PopulationSize = 50
	spec.GA.Generations = 5
	spec.Seed = 3
	spec.Fitness.SimsPerEncounter = 30

	var evals []acasxval.Evaluation
	res, err := acasxval.RunSearchContext(context.Background(), spec, factory, acasxval.SearchOptions{
		Observer: func(is acasxval.IslandStats) {
			evals = append(evals, is.Evaluations...)
			gs := is.Stats
			fmt.Printf("generation %d: fitness min %8.1f mean %8.1f max %8.1f\n",
				gs.Generation, gs.Min, gs.Mean, gs.Max)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Print(viz.RenderFitnessSeries(evals, 100, 16))

	top := core.TopEncounters(spec.Ranges, evals, 10)
	fmt.Printf("\ntop discoveries:\n%s", core.ReportTop(top))
	tally := core.Tally(top)
	fmt.Printf("geometry tally: %s\ndominant class: %s\n", tally, tally.Dominant())
	fmt.Printf("search: %d evaluations in %v\n", res.NumEvaluations, res.Elapsed.Round(1e7))
}
