// Example sweep builds a validation campaign programmatically through the
// facade — no spec file — and runs the new encounter presets against the
// table logic and the unequipped baseline, printing the per-cell JSONL
// stream and the ranked summary.
package main

import (
	"context"
	"fmt"
	"os"

	"acasxval"
)

func main() {
	table, err := acasxval.BuildLogicTable(acasxval.CoarseTableConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	spec := acasxval.DefaultCampaignSpec()
	spec.Name = "example"
	spec.Presets = []string{"headon", "tailchase", "overtake", "climbcross", "offsethead"}
	spec.Systems = []string{"none", "acasx"}
	spec.Samples = 8
	spec.Seed = 42

	res, err := acasxval.RunCampaignContext(context.Background(), spec, acasxval.DefaultCampaignSystems(table), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(res.SummaryTable())
}
