// Fig. 5 reproduction: a head-on encounter in which the own-ship's ACAS XU
// chooses climb maneuvers and, by coordination, the intruder chooses
// descend maneuvers; the mid-air collision is avoided. Renders the
// altitude-profile trajectory with the alerting segments highlighted and
// writes an SVG.
package main

import (
	"fmt"
	"log"
	"os"

	"acasxval"
	"acasxval/internal/viz"
)

func main() {
	cfg := acasxval.DefaultTableConfig()
	cfg.Workers = 8
	table, err := acasxval.BuildLogicTable(cfg)
	if err != nil {
		log.Fatal(err)
	}

	runCfg := acasxval.DefaultRunConfig()
	runCfg.RecordTrajectory = true
	factory, err := acasxval.NewSystemFactory(acasxval.SystemContext{Table: table}, acasxval.SystemSpec{Name: "acasx"})
	if err != nil {
		log.Fatal(err)
	}
	own, intruder := factory()
	res, err := acasxval.RunEncounter(acasxval.PresetHeadOn(), own, intruder, runCfg, 7)
	if err != nil {
		log.Fatal(err)
	}

	nmacAt := -1.0
	if res.NMAC {
		nmacAt = res.NMACTime
	}
	fmt.Print(viz.RenderTrajectories(res.Trajectory, viz.ProfileView, 100, 24, nmacAt))
	fmt.Printf("\nNMAC: %v, minimum separation %.1f m\n", res.NMAC, res.MinSeparation)

	// The coordinated senses: scan for the first instant both alert.
	for _, pt := range res.Trajectory {
		if pt.OwnAlerting && pt.IntruderAlerting {
			fmt.Printf("coordinated maneuvers at t=%.1f s: own sense %+d, intruder sense %+d\n",
				pt.T, pt.OwnSense, pt.IntruderSense)
			break
		}
	}

	f, err := os.Create("headon.svg")
	if err != nil {
		log.Fatal(err)
	}
	if err := viz.WriteTrajectorySVG(f, res.Trajectory, viz.ProfileView, 900, 560, nmacAt); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote headon.svg")
}
