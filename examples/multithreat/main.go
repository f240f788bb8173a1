// Multi-intruder walkthrough: the three multi-threat preset geometries run
// unequipped and equipped, showing the failure the pairwise validation
// never sees — a conflict resolved against one intruder can fly the
// ownship into another — and the most-restrictive-first advisory fusion
// that handles it. Finishes with a Monte-Carlo risk estimate over a
// two-intruder statistical airspace.
//
//	go run ./examples/multithreat
package main

import (
	"context"
	"fmt"
	"log"

	"acasxval"
)

func main() {
	// The coarse table keeps the walkthrough fast; swap in
	// DefaultTableConfig for the full-resolution logic.
	table, err := acasxval.BuildLogicTable(acasxval.CoarseTableConfig())
	if err != nil {
		log.Fatal(err)
	}

	acasxu := acasxval.SystemSpec{Name: "acasx"}
	sysCtx := acasxval.SystemContext{Table: table}
	cfg := acasxval.DefaultRunConfig()
	for _, name := range acasxval.MultiEncounterPresetNames() {
		m, err := acasxval.MultiEncounterPreset(name)
		if err != nil {
			log.Fatal(err)
		}
		k := m.NumIntruders()
		g := acasxval.ClassifyMulti(m)
		fmt.Printf("%s: %d intruders, dominant geometry %s\n", name, k, g.Category)

		// One system per aircraft: index 0 is the ownship, 1..K the
		// intruders. Unequipped aircraft fly straight through.
		unequipped := make([]acasxval.System, k+1)
		for i := range unequipped {
			unequipped[i] = acasxval.NoAvoidance()
		}
		base, err := acasxval.RunMultiEncounter(m, unequipped, cfg, 7)
		if err != nil {
			log.Fatal(err)
		}

		// Equip only the ownship: its ACAS XU queries the logic table once
		// per intruder each decision cycle and fuses the advisories
		// most-restrictive-first, so an escape that trades one conflict
		// for another is vetoed by the second threat's action values.
		equipped := make([]acasxval.System, k+1)
		if equipped[0], err = acasxval.NewSystem(sysCtx, acasxu); err != nil {
			log.Fatal(err)
		}
		for i := 1; i <= k; i++ {
			equipped[i] = acasxval.NoAvoidance()
		}
		res, err := acasxval.RunMultiEncounter(m, equipped, cfg, 7)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("  unequipped: NMAC=%-5v min separation %6.1f m\n", base.NMAC, base.MinSeparation)
		fmt.Printf("  equipped:   NMAC=%-5v min separation %6.1f m, ownship alerts %d (per-aircraft counts %v)\n",
			res.NMAC, res.MinSeparation, res.OwnAlerts(), res.AlertCounts)
	}

	// Risk over a whole two-intruder airspace: every episode samples one
	// ownship plus two independent intruders onto a shared ownship state
	// and simulates both conflicts in one closed-loop world. The estimate
	// is bit-identical for any worker count.
	mcCfg := acasxval.DefaultMonteCarloConfig()
	mcCfg.Samples = 400
	model := acasxval.DefaultMultiEncounterModel(2)
	ctx := context.Background()
	baseline, err := acasxval.EstimateMultiRareRiskContext(ctx, model, acasxval.Unequipped, mcCfg, acasxval.RareEventSpec{})
	if err != nil {
		log.Fatal(err)
	}
	factory, err := acasxval.NewSystemFactory(sysCtx, acasxu)
	if err != nil {
		log.Fatal(err)
	}
	equippedEst, err := acasxval.EstimateMultiRareRiskContext(ctx, model, factory, mcCfg, acasxval.RareEventSpec{})
	if err != nil {
		log.Fatal(err)
	}
	ratio, err := acasxval.RiskRatio(equippedEst, baseline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntwo-intruder airspace (%d episodes): P(NMAC) unequipped %.3f, equipped %.3f, risk ratio %.3f\n",
		mcCfg.Samples, baseline.PNMAC, equippedEst.PNMAC, ratio)
}
