package campaign

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"acasxval/internal/config"
	"acasxval/internal/encounter"
	"acasxval/internal/montecarlo"
)

// estimatorSpecText declares a campaign mixing a classic preset grid with a
// full rare-event estimator axis.
const estimatorSpecText = `
campaign.name = estimators
campaign.presets = headon
campaign.systems = none
campaign.samples = 60
campaign.seed = 7
campaign.estimator.methods = bruteforce,is,split
campaign.estimator.defensive = 0.3
campaign.estimator.bandwidth = 0.02
campaign.estimator.levels = 300,160
campaign.estimator.moves = 2
campaign.estimator.kernel.0 = 40,0,30,50,1.5,-10,40,3.0,0
campaign.estimator.kernel.1 = 45,1,25,100,4.0,15,35,1.0,-1
`

func estimatorSpec(t *testing.T) Spec {
	t.Helper()
	c, err := config.Parse(estimatorSpecText)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEstimatorAxis runs the mixed campaign and checks the estimator cells'
// placement, record shape, and exclusion from the classic summaries.
func TestEstimatorAxis(t *testing.T) {
	spec := estimatorSpec(t)
	if want := []string{"bruteforce", "is", "split"}; len(spec.Estimators) != len(want) {
		t.Fatalf("estimator axis %v, want %v", spec.Estimators, want)
	}
	if len(spec.EstimatorSpec.Kernels) != 2 {
		t.Fatalf("decoded %d kernels, want 2", len(spec.EstimatorSpec.Kernels))
	}
	var out bytes.Buffer
	res, err := RunContext(context.Background(), spec, DefaultSystems(nil), &out)
	if err != nil {
		t.Fatal(err)
	}
	// 1 preset + 3 estimator cells, one system, one variant.
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(res.Cells))
	}
	if c := res.Cells[0]; c.Estimator != "" || c.Scenario != "headon" {
		t.Errorf("classic cell perturbed by estimator axis: %+v", c)
	}
	for i, want := range []string{"bruteforce", "is", "split"} {
		c := res.Cells[1+i]
		if c.Estimator != want || c.Scenario != estimatorScenario {
			t.Fatalf("cell %d: estimator %q scenario %q, want %q under %q",
				c.Index, c.Estimator, c.Scenario, want, estimatorScenario)
		}
		if len(c.Params) != 0 {
			t.Errorf("estimator cell %q carries a params vector", want)
		}
		if c.ESS <= 0 {
			t.Errorf("estimator cell %q: ESS %v, want > 0", want, c.ESS)
		}
		if c.PNMAC < 0 || c.PNMAC > 1 || c.PNMACHi < c.PNMACLo {
			t.Errorf("estimator cell %q: implausible estimate %+v", want, c)
		}
	}
	// The brute-force estimator point is exactly the plain evaluator.
	if c := res.Cells[1]; c.VarianceReduction != 1 || c.Samples != 60 {
		t.Errorf("bruteforce estimator cell: VRF %v samples %d, want 1 and 60", c.VarianceReduction, c.Samples)
	}
	// Classic summaries pool only the fixed-scenario cells.
	for _, s := range res.Summaries {
		if s.Cells != 1 || s.Samples != 60 {
			t.Errorf("summary pooled estimator cells: %+v", s)
		}
	}
	table := res.SummaryTable()
	if !strings.Contains(table, "rare-event estimates") {
		t.Errorf("summary table missing the estimator section:\n%s", table)
	}
	for _, m := range []string{"bruteforce", "is", "split"} {
		if !strings.Contains(table, m) {
			t.Errorf("summary table missing estimator %q:\n%s", m, table)
		}
	}
}

// TestEstimatorTableRiskRatio: each row of the estimator table reports
// montecarlo.RiskRatio of its cell against the unequipped cell under the
// same estimator, variant and fault point, and "-" where that ratio is
// undefined: no baseline cell, or a baseline estimate of zero. A campaign
// of estimator cells alone prints no classic table.
func TestEstimatorTableRiskRatio(t *testing.T) {
	cell := func(estimator, system, variant, fault string, p float64) CellResult {
		return CellResult{Scenario: estimatorScenario, Estimator: estimator, System: system, Variant: variant, Fault: fault, PNMAC: p}
	}
	cells := []CellResult{
		cell("bruteforce", "svo", "default", "", 0.12),
		cell("bruteforce", "none", "default", "", 0.96),
		cell("bruteforce", "svo", "default", "severe", 0.3),
		cell("bruteforce", "none", "default", "severe", 0.9),
		cell("bruteforce", "svo", "slow", "", 0.2),
		cell("is", "svo", "default", "", 0.01),
		cell("is", "none", "default", "", 0),
		cell("split", "svo", "default", "", 0.02),
	}
	for i := range cells {
		cells[i].Index = i
	}
	table := NewResult(DefaultSpec(), cells).SummaryTable()
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if len(lines) != 2+len(cells) || lines[0] != "rare-event estimates (statistical encounter model)" {
		t.Fatalf("want the estimator section alone, one row per cell:\n%s", table)
	}
	defined := 0
	for i, c := range cells {
		want := "-"
		for _, base := range cells {
			if base.System != BaselineSystem || base.Estimator != c.Estimator || base.Variant != c.Variant || base.Fault != c.Fault {
				continue
			}
			if ratio, err := montecarlo.RiskRatio(&montecarlo.Estimate{PNMAC: c.PNMAC}, &montecarlo.Estimate{PNMAC: base.PNMAC}); err == nil {
				want = fmt.Sprintf("%.4f", ratio)
				defined++
			}
		}
		fields := strings.Fields(lines[2+i])
		if got := fields[len(fields)-1]; fields[0] != c.Estimator || fields[1] != c.System || got != want {
			t.Errorf("row %q: risk ratio %s, want %s", lines[2+i], got, want)
		}
	}
	if defined != 4 {
		t.Errorf("%d defined ratios, want 4", defined)
	}
}

// TestEstimatorAxisDeterministic: the estimator cells — importance sampling
// and splitting included — produce byte-identical JSONL at any parallelism.
func TestEstimatorAxisDeterministic(t *testing.T) {
	systems := DefaultSystems(nil)
	var streams []string
	for _, par := range []int{1, 8} {
		spec := estimatorSpec(t)
		spec.Parallelism = par
		var out bytes.Buffer
		if _, err := RunContext(context.Background(), spec, systems, &out); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, out.String())
	}
	if streams[0] != streams[1] {
		t.Errorf("JSONL differs across parallelism:\n%s\nvs\n%s", streams[0], streams[1])
	}
}

// TestModelPriorKeys: campaign.model.hmd / .vmd replace the statistical
// model's CPA miss-distance priors with uniform intervals, and malformed
// pairs are rejected.
func TestModelPriorKeys(t *testing.T) {
	base := "campaign.name = x\ncampaign.presets = headon\ncampaign.systems = none\n"
	c, err := config.Parse(base + "campaign.model.hmd = 0, 8000\ncampaign.model.vmd = -400, 400\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Model == nil {
		t.Fatal("model prior keys left spec.Model nil")
	}
	if got := s.Model.Ranges.HorizontalMissDistance; got.Min != 0 || got.Max != 8000 {
		t.Errorf("hmd range %+v, want [0, 8000]", got)
	}
	if got := s.Model.Ranges.VerticalMissDistance; got.Min != -400 || got.Max != 400 {
		t.Errorf("vmd range %+v, want [-400, 400]", got)
	}
	if err := s.Model.Validate(); err != nil {
		t.Errorf("widened model invalid: %v", err)
	}
	for _, bad := range []string{
		"campaign.model.hmd = 8000\n",
		"campaign.model.hmd = 10, 10\n",
		"campaign.model.vmd = 400, -400\n",
		"campaign.model.hmd = a, b\n",
	} {
		c, err := config.Parse(base + bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromConfig(c); err == nil {
			t.Errorf("malformed prior accepted: %q", bad)
		}
	}
}

// TestEstimatorConfigErrors covers the strict estimator key validation and
// the reserved scenario name.
func TestEstimatorConfigErrors(t *testing.T) {
	parse := func(text string) error {
		c, err := config.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		_, err = FromConfig(c)
		return err
	}
	base := "campaign.name = x\ncampaign.presets = headon\ncampaign.systems = none\n"
	if err := parse(base + "campaign.estimator.method = is\n"); err == nil ||
		!strings.Contains(err.Error(), "campaign.estimator.methods") {
		t.Errorf("singular method key accepted: %v", err)
	}
	if err := parse(base + "campaign.estimator.defensive = 0.5\n"); err == nil ||
		!strings.Contains(err.Error(), "orphaned") {
		t.Errorf("orphaned estimator tuning accepted: %v", err)
	}
	if err := parse(base + "campaign.estimator.methods = is\ncampaign.estimator.bogus = 1\n"); err == nil ||
		!strings.Contains(err.Error(), "unknown estimator key") {
		t.Errorf("unknown estimator key accepted: %v", err)
	}
	if err := parse(base + "campaign.estimator.methods = warp\n"); err == nil {
		t.Error("unknown estimator method accepted")
	}
	if err := parse(base + "campaign.estimator.methods = is,is\n"); err == nil {
		t.Error("duplicate estimator method accepted")
	}
	headon, err := encounter.MultiPreset("headon")
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSpec()
	spec.Presets = nil
	spec.Scenarios = []Scenario{{Name: estimatorScenario, Params: headon}}
	spec.Estimators = []string{montecarlo.MethodIS}
	if err := spec.Validate(); err == nil ||
		!strings.Contains(err.Error(), "reserved") {
		t.Errorf("reserved scenario name accepted: %v", err)
	}
}
