// Backend registry walkthrough: enumerate every registered collision
// avoidance backend (SystemNames), construct each from a SystemSpec, and
// sweep them all over one preset geometry with the Monte-Carlo harness,
// ranking the menu by risk ratio against the unequipped baseline. Adding a
// backend with RegisterSystem would add a row here without touching this
// program.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"acasxval"
)

func main() {
	// The table executives ("acasx", "belief") need the offline-optimized
	// logic table; every other backend constructs from a bare context.
	tableCfg := acasxval.CoarseTableConfig() // example scale
	tableCfg.Workers = 8
	table, err := acasxval.BuildLogicTable(tableCfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx := acasxval.SystemContext{Table: table}

	// One preset geometry, replayed under stochastic dynamics and sensor
	// noise: the same cell every backend of a campaign sweep faces.
	preset := acasxval.PresetHeadOn()
	cfg := acasxval.DefaultMonteCarloConfig()
	cfg.Samples = 400 // example scale
	cfg.Seed = 7

	type row struct {
		name  string
		est   *acasxval.RiskEstimate
		ratio float64
	}
	var rows []row
	estimates := map[string]*acasxval.RiskEstimate{}
	for _, name := range acasxval.SystemNames() {
		backend, _ := acasxval.LookupSystem(name)
		factory, err := acasxval.NewSystemFactory(ctx, acasxval.SystemSpec{Name: name})
		if err != nil {
			log.Fatal(err)
		}
		est, err := acasxval.EstimateRiskContext(context.Background(), acasxval.PointEncounterModel(preset), factory, cfg)
		if err != nil {
			log.Fatal(err)
		}
		estimates[name] = est
		rows = append(rows, row{name: name, est: est})
		fmt.Printf("%-8s %s\n", name, backend.Doc)
	}

	// Rank by risk ratio against the unequipped baseline, the way a
	// campaign summary does.
	base := estimates["none"]
	for i := range rows {
		if ratio, err := acasxval.RiskRatio(rows[i].est, base); err == nil {
			rows[i].ratio = ratio
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ratio < rows[j].ratio })

	fmt.Printf("\nhead-on preset, %d samples per backend:\n", cfg.Samples)
	fmt.Printf("%-8s %9s %11s %13s %11s\n", "system", "P(NMAC)", "alert rate", "mean min sep", "risk ratio")
	for _, r := range rows {
		fmt.Printf("%-8s %9.4f %11.2f %11.1f m %11.4f\n",
			r.name, r.est.PNMAC, r.est.AlertRate, r.est.MeanMinSeparation, r.ratio)
	}

	// Spec params override backend defaults without a dedicated
	// constructor: a wider MPC safety bubble resolves with more margin.
	wide, err := acasxval.NewSystemFactory(ctx, acasxval.SystemSpec{
		Name:   "mpc",
		Params: map[string]float64{"safety_distance": 900},
	})
	if err != nil {
		log.Fatal(err)
	}
	est, err := acasxval.EstimateRiskContext(context.Background(), acasxval.PointEncounterModel(preset), wide, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmpc with safety_distance=900: mean min sep %.1f m (default %.1f m)\n",
		est.MeanMinSeparation, estimates["mpc"].MeanMinSeparation)
}
