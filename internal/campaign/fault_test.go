package campaign

import (
	"context"
	"strings"
	"testing"

	"acasxval/internal/config"
	"acasxval/internal/fault"
)

// faultSpec extends the shared test campaign with a two-point fault axis:
// the clean profile and the "moderate" preset.
func faultSpec(t *testing.T) Spec {
	t.Helper()
	moderate, err := fault.Preset("moderate")
	if err != nil {
		t.Fatal(err)
	}
	s := testSpec()
	s.Faults = []FaultPoint{
		{Name: "none"},
		{Name: "moderate", Profile: moderate},
	}
	return s
}

// TestFaultAxisPairsCellsWithCleanRun: the fault point is excluded from
// the cell-seed identity, so the fault-free point of a fault-axis
// campaign reproduces the no-axis campaign cell for cell (severity
// comparisons are paired), and every faulted cell replays the same
// scenario vector as its clean sibling.
func TestFaultAxisPairsCellsWithCleanRun(t *testing.T) {
	systems := DefaultSystems(nil)
	base, err := RunContext(context.Background(), testSpec(), systems, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := RunContext(context.Background(), faultSpec(t), systems, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulted.Cells) != 2*len(base.Cells) {
		t.Fatalf("fault axis cells = %d, want %d (double the clean grid)", len(faulted.Cells), 2*len(base.Cells))
	}
	type id struct{ scenario, system, variant string }
	clean := make(map[id]CellResult)
	for _, c := range base.Cells {
		if c.Fault != "" {
			t.Fatalf("clean campaign cell %d has fault label %q", c.Index, c.Fault)
		}
		clean[id{c.Scenario, c.System, c.Variant}] = c
	}
	pairedFaulted := 0
	for _, c := range faulted.Cells {
		want, ok := clean[id{c.Scenario, c.System, c.Variant}]
		if !ok {
			t.Fatalf("cell %d (%s/%s/%s) missing from the clean campaign", c.Index, c.Scenario, c.System, c.Variant)
		}
		switch c.Fault {
		case "":
			// The fault-free point must replicate the clean run exactly,
			// index aside.
			got := c
			got.Index = want.Index
			if got.Samples != want.Samples || got.NMACs != want.NMACs || got.PNMAC != want.PNMAC ||
				got.AlertRate != want.AlertRate || got.MeanMinSep != want.MeanMinSep {
				t.Errorf("fault-free cell %s/%s/%s differs from the clean campaign:\n got %+v\nwant %+v",
					c.Scenario, c.System, c.Variant, got, want)
			}
		case "moderate":
			pairedFaulted++
			// Same scenario vector — only the degradation differs.
			if len(c.Params) != len(want.Params) {
				t.Fatalf("faulted cell params length differs: %d vs %d", len(c.Params), len(want.Params))
			}
			for i := range c.Params {
				if c.Params[i] != want.Params[i] {
					t.Errorf("faulted cell %s/%s/%s params[%d] = %v, clean sibling %v",
						c.Scenario, c.System, c.Variant, i, c.Params[i], want.Params[i])
				}
			}
		default:
			t.Errorf("unexpected fault label %q", c.Fault)
		}
	}
	if pairedFaulted != len(base.Cells) {
		t.Errorf("faulted cells = %d, want %d", pairedFaulted, len(base.Cells))
	}
}

// TestFaultAxisCellOrder: cells expand variant-major, then fault point,
// then scenario, then system — the default single point reproduces the
// historical order, and a declared axis groups each variant's fault
// points contiguously.
func TestFaultAxisCellOrder(t *testing.T) {
	cells, err := faultSpec(t).Cells()
	if err != nil {
		t.Fatal(err)
	}
	perVariant := len(cells) / 2 // two variants
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		wantFault := "none"
		if (i%perVariant)/(perVariant/2) == 1 {
			wantFault = "moderate"
		}
		if c.Fault.Name != wantFault {
			t.Errorf("cell %d: fault point %q, want %q", i, c.Fault.Name, wantFault)
		}
	}
}

// TestFaultAxisSummaries: summaries group by (system, variant, fault),
// each degraded group carries its own baseline, and the table grows a
// fault column only when a named fault point ran.
func TestFaultAxisSummaries(t *testing.T) {
	systems := DefaultSystems(nil)
	res, err := RunContext(context.Background(), faultSpec(t), systems, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 systems x 2 variants x 2 fault points.
	if len(res.Summaries) != 8 {
		t.Fatalf("got %d summaries, want 8", len(res.Summaries))
	}
	seen := make(map[[3]string]bool)
	for _, s := range res.Summaries {
		seen[[3]string{s.System, s.Variant, s.Fault}] = true
		if s.System == BaselineSystem && s.HasRiskRatio && s.RiskRatio != 1 {
			t.Errorf("baseline risk ratio under fault %q = %v, want 1", s.Fault, s.RiskRatio)
		}
	}
	for _, sys := range []string{"none", "svo"} {
		for _, v := range []string{"default", "nocoord"} {
			for _, f := range []string{"", "moderate"} {
				if !seen[[3]string{sys, v, f}] {
					t.Errorf("missing summary group (%s, %s, %q)", sys, v, f)
				}
			}
		}
	}
	table := res.SummaryTable()
	header, _, _ := strings.Cut(table, "\n")
	if !strings.Contains(header, "fault") || !strings.Contains(table, "moderate") {
		t.Errorf("faulted summary table lacks the fault column:\n%s", table)
	}
	cleanRes, err := RunContext(context.Background(), testSpec(), systems, nil)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ = strings.Cut(cleanRes.SummaryTable(), "\n")
	if strings.Contains(header, "fault") {
		t.Errorf("clean summary table grew a fault column:\n%s", cleanRes.SummaryTable())
	}
}

// TestSpecValidateFaults: the fault-axis specific rejections.
func TestSpecValidateFaults(t *testing.T) {
	moderate, err := fault.Preset("moderate")
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Faults = []FaultPoint{{Name: "", Profile: moderate}} },
		func(s *Spec) {
			s.Faults = []FaultPoint{{Name: "a", Profile: moderate}, {Name: "a", Profile: moderate}}
		},
		func(s *Spec) {
			// Two disabled points would be indistinguishable in the
			// record stream.
			s.Faults = []FaultPoint{{Name: "none"}, {Name: "alsonone"}}
		},
		func(s *Spec) {
			// Invalid profile: burst entry with no exit.
			s.Faults = []FaultPoint{{Name: "stuck", Profile: fault.Profile{BurstEnter: 0.5, BurstDrop: 1}}}
		},
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid fault axis", i)
		}
	}
	if err := faultSpec(t).Validate(); err != nil {
		t.Errorf("valid fault axis rejected: %v", err)
	}
}

// TestFromConfigFaults: the campaign.faults preset list and numbered
// custom points parse into the declared axis.
func TestFromConfigFaults(t *testing.T) {
	text := `
campaign.presets = headon
campaign.systems = none
campaign.faults = light, moderate
campaign.faults.0.name = custom
campaign.faults.0.preset = severe
campaign.faults.0.latency = 0
campaign.faults.1.name = rangecap
campaign.faults.1.range = 2000
`
	params, err := config.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 4 {
		t.Fatalf("faults = %d points, want 4 (%+v)", len(s.Faults), s.Faults)
	}
	light, _ := fault.Preset("light")
	moderate, _ := fault.Preset("moderate")
	severe, _ := fault.Preset("severe")
	if s.Faults[0] != (FaultPoint{Name: "light", Profile: light}) {
		t.Errorf("point 0 = %+v", s.Faults[0])
	}
	if s.Faults[1] != (FaultPoint{Name: "moderate", Profile: moderate}) {
		t.Errorf("point 1 = %+v", s.Faults[1])
	}
	wantCustom := severe
	wantCustom.Latency = 0
	if s.Faults[2] != (FaultPoint{Name: "custom", Profile: wantCustom}) {
		t.Errorf("point 2 = %+v, want severe with latency 0", s.Faults[2])
	}
	if s.Faults[3].Name != "rangecap" || s.Faults[3].Profile.DetectionRange != 2000 {
		t.Errorf("point 3 = %+v", s.Faults[3])
	}
}

// TestFromConfigFaultsAll: "all" expands to every preset severity.
func TestFromConfigFaultsAll(t *testing.T) {
	params, err := config.Parse("campaign.presets = headon\ncampaign.systems = none\ncampaign.faults = all\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != len(fault.PresetNames()) {
		t.Errorf("faults = %+v, want all of %v", s.Faults, fault.PresetNames())
	}
}

// TestFromConfigFaultKeyValidation: a typo in a campaign.faults.* or
// campaign.variant.* key is a hard parse error with a menu, never a
// silently-clean sweep.
func TestFromConfigFaultKeyValidation(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{
			name: "unknown field",
			text: "campaign.faults.0.name = a\ncampaign.faults.0.burst.entre = 0.1\n",
			want: "unknown fault field",
		},
		{
			name: "orphaned numbering gap",
			text: "campaign.faults.0.name = a\ncampaign.faults.2.name = b\n",
			want: "orphaned fault key",
		},
		{
			name: "missing name",
			text: "campaign.faults.0.latency = 2\n",
			want: "orphaned fault key",
		},
		{
			name: "malformed index",
			text: "campaign.faults.x.name = a\n",
			want: "malformed fault key",
		},
		{
			name: "unknown preset",
			text: "campaign.faults = catastrophic\n",
			want: "unknown profile",
		},
		{
			name: "variant unknown field",
			text: "campaign.variant.0.name = a\ncampaign.variant.0.sampels = 5\n",
			want: "unknown variant field",
		},
		{
			name: "variant orphaned numbering gap",
			text: "campaign.variant.0.name = a\ncampaign.variant.2.name = b\n",
			want: "orphaned variant key",
		},
		{
			name: "variant missing name",
			text: "campaign.variant.0.samples = 5\n",
			want: "orphaned variant key",
		},
		{
			name: "variant malformed index",
			text: "campaign.variant.01.name = a\n",
			want: "malformed variant key",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := "campaign.presets = headon\ncampaign.systems = none\n" + tc.text
			params, err := config.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			_, err = FromConfig(params)
			if err == nil {
				t.Fatalf("FromConfig accepted %q", tc.text)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFaultedCampaignRiskRatioOrdering: under heavy degradation the
// equipped system must lose protective value relative to its clean
// performance — the paper's degraded-mode argument in one assertion.
func TestFaultedCampaignRiskRatioOrdering(t *testing.T) {
	severe, err := fault.Preset("severe")
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSpec()
	s.Presets = []string{"headon", "crossing"}
	s.Systems = []string{"none", "svo"}
	s.Samples = 8
	s.Seed = 3
	s.Faults = []FaultPoint{
		{Name: "none"},
		{Name: "severe", Profile: severe},
	}
	res, err := RunContext(context.Background(), s, DefaultSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	ratios := make(map[string]SystemSummary)
	for _, sum := range res.Summaries {
		if sum.System == "svo" {
			ratios[sum.Fault] = sum
		}
	}
	clean, faulted := ratios[""], ratios["severe"]
	if !clean.HasRiskRatio || !faulted.HasRiskRatio {
		t.Fatalf("missing risk ratios: clean %+v faulted %+v", clean, faulted)
	}
	if clean.RiskRatio >= 1 {
		t.Errorf("clean equipped risk ratio = %v, want < 1", clean.RiskRatio)
	}
	if faulted.RiskRatio < clean.RiskRatio {
		t.Errorf("severe degradation improved the risk ratio: %v faulted vs %v clean",
			faulted.RiskRatio, clean.RiskRatio)
	}
}
