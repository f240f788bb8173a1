// Model revision loop (paper Fig. 1): "If the generated logic failed to
// achieve the required performance, revisions are made to the MDP model
// manually."
//
// This example closes the loop the paper proposes: (1) generate the logic,
// (2) use the GA-style analysis to expose the tail-approach weakness,
// (3) revise the model — here, enlarging the horizontal conflict radius
// DMOD so slow-closure traffic produces small tau values — and (4) show the
// revised logic resolves the discovered challenge, at the cost of more
// alerts (the safety / false-alarm trade the paper's preference structure
// encodes).
package main

import (
	"fmt"
	"log"

	"acasxval"
	"acasxval/internal/acasx"
	"acasxval/internal/stats"
)

func main() {
	// Step 1: the original model.
	origCfg := acasxval.DefaultTableConfig()
	origCfg.Workers = 8
	orig, err := acasxval.BuildLogicTable(origCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: the challenge the validation search discovers.
	tail := acasxval.PresetTailApproach()
	fmt.Println("discovered challenging situation:", tail)
	fmt.Printf("original model: %s\n", evaluate(orig, tail))

	// Step 3: manual model revision. The discovered mechanism is that tau,
	// derived purely from horizontal closure, never fires at slow closure
	// rates. The revision: enlarge the horizontal conflict radius DMOD so
	// slow overtakes register as horizontal conflicts, and add the
	// vertical-conflict fallback so that "horizontally in conflict but
	// vertically separated" states are timed by the vertical closure.
	revisedCfg := origCfg
	revisedCfg.DMOD = 500 // metres, up from 152.4
	revisedCfg.UseVerticalTau = true
	revised, err := acasxval.BuildLogicTable(revisedCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revised model (DMOD 500 m + vertical tau): %s\n", evaluate(revised, tail))

	// The head-on behaviour must not regress.
	headOn := acasxval.PresetHeadOn()
	fmt.Printf("\nregression check, head-on: original %s\n", evaluate(orig, headOn))
	fmt.Printf("regression check, head-on: revised  %s\n", evaluate(revised, headOn))

	// Step 4: the tau revision lives in the online executive, so the table
	// itself is unchanged (agreement 1.0). Preference revisions, by
	// contrast, reshape the generated logic itself — demonstrate with a
	// more alert-averse preference structure and quantify the change.
	cmp, err := acasx.ComparePolicies(orig, revised, 5000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npolicy comparison (original vs tau-revised table): %s\n", cmp)

	costCfg := origCfg
	costCfg.Cost.NewAlert = 500     // 5x more reluctant to alert
	costCfg.Cost.ActivePerStep = 50 // 5x more eager to clear
	costRevised, err := acasxval.BuildLogicTable(costCfg)
	if err != nil {
		log.Fatal(err)
	}
	cmp2, err := acasx.ComparePolicies(orig, costRevised, 5000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy comparison (original vs alert-averse costs): %s\n", cmp2)
	fmt.Printf("alert-averse table on head-on: %s\n", evaluate(costRevised, headOn))

	fmt.Println("\nnote: the revision trades alerts for safety — exactly the preference")
	fmt.Println("balance the paper's reward/punishment mechanism is meant to encode.")
}

type outcome struct {
	nmacs, runs, alerted int
}

func (o outcome) String() string {
	return fmt.Sprintf("%d/%d NMACs, alert rate %.2f", o.nmacs, o.runs, float64(o.alerted)/float64(o.runs))
}

func evaluate(table *acasxval.Table, p acasxval.EncounterParams) outcome {
	const runs = 100
	out := outcome{runs: runs}
	cfg := acasxval.DefaultRunConfig()
	factory, err := acasxval.NewSystemFactory(acasxval.SystemContext{Table: table}, acasxval.SystemSpec{Name: "acasx"})
	if err != nil {
		log.Fatal(err)
	}
	for k := 0; k < runs; k++ {
		own, intruder := factory()
		res, err := acasxval.RunEncounter(p, own, intruder, cfg, stats.DeriveSeed(77, k))
		if err != nil {
			log.Fatal(err)
		}
		if res.NMAC {
			out.nmacs++
		}
		if res.Alerted() {
			out.alerted++
		}
	}
	return out
}
