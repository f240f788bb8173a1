// Quickstart: generate a collision avoidance logic table by model-based
// optimization, fly one head-on encounter with both UAVs equipped, and
// print the outcome.
package main

import (
	"fmt"
	"log"

	"acasxval"
)

func main() {
	// 1. Offline: solve the encounter MDP into a logic table (the paper's
	//    Fig. 1 pipeline). The coarse table keeps the quickstart fast; use
	//    DefaultTableConfig for the full-resolution system.
	cfg := acasxval.CoarseTableConfig()
	cfg.Workers = 4
	table, err := acasxval.BuildLogicTable(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("logic table generated in %v (%d Q values)\n", table.BuildTime(), table.NumEntries())

	// 2. Online: equip two UAVs with the generated logic and simulate the
	//    paper's Fig. 5 head-on geometry.
	factory, err := acasxval.NewSystemFactory(acasxval.SystemContext{Table: table}, acasxval.SystemSpec{Name: "acasx"})
	if err != nil {
		log.Fatal(err)
	}
	own, intruder := factory()
	res, err := acasxval.RunEncounter(acasxval.PresetHeadOn(), own, intruder,
		acasxval.DefaultRunConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("head-on encounter: NMAC=%v\n", res.NMAC)
	fmt.Printf("minimum 3-D separation: %.1f m\n", res.MinSeparation)
	fmt.Printf("proximity measurer minima (tracked independently, as in the paper): horizontal %.1f m, vertical %.1f m\n",
		res.MinHorizontal, res.MinVertical)
	fmt.Printf("own-ship alerted %d time(s), first at t=%.1f s\n", res.OwnAlerts(), res.OwnAlertTime)

	// 3. Baseline: the same encounter unequipped collides.
	none := acasxval.NoAvoidance()
	base, err := acasxval.RunEncounter(acasxval.PresetHeadOn(), none, none,
		acasxval.DefaultRunConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unequipped baseline: NMAC=%v (min separation %.1f m)\n", base.NMAC, base.MinSeparation)
}
