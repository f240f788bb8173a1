// Monte-Carlo validation path (paper sections II and IV): estimate the
// mid-air collision probability of the equipped system, the SVO baseline
// and the unequipped baseline over a statistical encounter model, with
// confidence intervals and risk ratios.
package main

import (
	"context"
	"fmt"
	"log"

	"acasxval"
)

func main() {
	tableCfg := acasxval.DefaultTableConfig()
	tableCfg.Workers = 8
	table, err := acasxval.BuildLogicTable(tableCfg)
	if err != nil {
		log.Fatal(err)
	}

	model := acasxval.DefaultEncounterModel()
	cfg := acasxval.DefaultMonteCarloConfig()
	cfg.Samples = 1000 // example scale; cmd/mceval defaults to 10000

	estimates := map[string]*acasxval.RiskEstimate{}
	fmt.Printf("%-8s %9s %20s %11s %13s\n", "system", "P(NMAC)", "95% CI", "alert rate", "mean min sep")
	for _, name := range []string{"acasx", "svo", "none"} {
		factory, err := acasxval.NewSystemFactory(acasxval.SystemContext{Table: table}, acasxval.SystemSpec{Name: name})
		if err != nil {
			log.Fatal(err)
		}
		est, err := acasxval.EstimateRiskContext(context.Background(), model, factory, cfg)
		if err != nil {
			log.Fatal(err)
		}
		estimates[name] = est
		fmt.Printf("%-8s %9.4f [%8.4f, %8.4f] %11.2f %11.1f m\n",
			name, est.PNMAC, est.PNMACCI.Lo, est.PNMACCI.Hi, est.AlertRate, est.MeanMinSeparation)
	}

	for _, name := range []string{"acasx", "svo"} {
		if ratio, err := acasxval.RiskRatio(estimates[name], estimates["none"]); err == nil {
			fmt.Printf("risk ratio %s vs unequipped: %.4f\n", name, ratio)
		}
	}
}
