package acasxval

// Integration tests exercising the full pipeline through the public facade
// only: table generation -> closed-loop simulation -> fitness -> GA search
// -> analysis, plus the Monte-Carlo and grid2d paths.

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"acasxval/internal/core"
	"acasxval/internal/encounter"
	"acasxval/internal/grid2d"
	"acasxval/internal/sim"
)

var (
	facadeTableOnce sync.Once
	facadeTable     *Table
	facadeTableErr  error
)

func facadeLogicTable(tb testing.TB) *Table {
	tb.Helper()
	facadeTableOnce.Do(func() {
		cfg := DefaultTableConfig()
		cfg.Workers = 8
		facadeTable, facadeTableErr = BuildLogicTable(cfg)
	})
	if facadeTableErr != nil {
		tb.Fatal(facadeTableErr)
	}
	return facadeTable
}

func facadeFactory(tb testing.TB) SystemFactory {
	table := facadeLogicTable(tb)
	return func() (sim.System, sim.System) {
		return sim.NewACASXU(table), sim.NewACASXU(table)
	}
}

func TestQuickstartFlow(t *testing.T) {
	table := facadeLogicTable(t)
	res, err := RunEncounter(PresetHeadOn(), sim.NewACASXU(table), sim.NewACASXU(table), DefaultRunConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.NMAC {
		t.Error("quickstart head-on collided")
	}
	if !res.Alerted() {
		t.Error("quickstart head-on never alerted")
	}
}

func TestTableSaveLoadThroughFacade(t *testing.T) {
	cfg := CoarseTableConfig()
	cfg.Workers = 4
	table, err := BuildLogicTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "logic.acxt")
	if err := table.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLogicTable(path)
	if err != nil {
		t.Fatal(err)
	}
	// A loaded table must drive the logic identically.
	p := PresetHeadOn()
	a, err := RunEncounter(p, sim.NewACASXU(table), sim.NewACASXU(table), DefaultRunConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEncounter(p, sim.NewACASXU(loaded), sim.NewACASXU(loaded), DefaultRunConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.MinSeparation != b.MinSeparation || a.NMAC != b.NMAC {
		t.Error("loaded table behaves differently from built table")
	}
}

// TestEndToEndSearchFindsTailApproaches is the integration version of the
// paper's section VII experiment at reduced scale: the one-island GA search
// against the equipped system should surface high-fitness encounters, and
// the fitness should climb across generations.
func TestEndToEndSearchFindsTailApproaches(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end search is slow")
	}
	spec := DefaultSearchSpec()
	spec.Islands = 1
	spec.GA.PopulationSize = 30
	spec.GA.Generations = 4
	spec.Seed = 20
	spec.Fitness.SimsPerEncounter = 10
	var evals []Evaluation
	res, err := RunSearchContext(context.Background(), spec, facadeFactory(t), SearchOptions{Observer: func(is IslandStats) {
		evals = append(evals, is.Evaluations...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	history := res.Islands[0]
	first := history[0]
	last := history[len(history)-1]
	if last.Mean <= first.Mean {
		t.Errorf("fitness did not climb: gen0 mean %v, final mean %v", first.Mean, last.Mean)
	}
	if res.Best.Fitness < 2000 {
		t.Errorf("search failed to find a challenging encounter: best %v", res.Best.Fitness)
	}
	// Among the top discoveries, tail approaches dominate (the paper's
	// "most of them are tail approach situations"). The remainder are
	// high-vertical-rate convergences, the other genuine weak spot.
	tally := core.Tally(core.TopEncounters(spec.Ranges, evals, 10))
	if tally.Dominant() != encounter.TailApproach {
		t.Errorf("dominant discovered class = %v (%s), want tail-approach",
			tally.Dominant(), tally)
	}
}

func TestSVOThroughFacade(t *testing.T) {
	svoSys, err := NewSystem(SystemContext{}, SystemSpec{Name: "svo"})
	if err != nil {
		t.Fatal(err)
	}
	svoSys2, err := NewSystem(SystemContext{}, SystemSpec{Name: "svo"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEncounter(PresetHeadOn(), svoSys, svoSys2, DefaultRunConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NMAC {
		t.Error("SVO head-on collided")
	}
}

func TestMonteCarloThroughFacade(t *testing.T) {
	cfg := DefaultMonteCarloConfig()
	cfg.Samples = 60
	est, err := EstimateRiskContext(context.Background(), DefaultEncounterModel(), facadeFactory(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 60 {
		t.Errorf("samples = %d", est.Samples)
	}
	if est.PNMAC > 0.3 {
		t.Errorf("equipped P(NMAC) = %v, suspiciously high", est.PNMAC)
	}
}

func TestGrid2DThroughFacade(t *testing.T) {
	m, err := NewGrid2D(DefaultGrid2DConfig())
	if err != nil {
		t.Fatal(err)
	}
	lt, err := SolveGrid2D(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := lt.Action(grid2d.State{YO: 0, XR: 2, YI: 0}); got == grid2d.Level {
		t.Error("grid2d logic levels off before an imminent collision")
	}
}

func TestClassifyThroughFacade(t *testing.T) {
	if Classify(PresetHeadOn()).Category != encounter.HeadOn {
		t.Error("head-on preset misclassified")
	}
	if Classify(PresetTailApproach()).Category != encounter.TailApproach {
		t.Error("tail preset misclassified")
	}
}

func TestUnequippedFacade(t *testing.T) {
	none := NoAvoidance()
	res, err := RunEncounter(PresetHeadOn(), none, none, DefaultRunConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alerted() {
		t.Error("unequipped aircraft alerted")
	}
}

func TestNewSystemThroughFacade(t *testing.T) {
	table := facadeLogicTable(t)
	ctx := SystemContext{Table: table}
	for _, name := range SystemNames() {
		sys, err := NewSystem(ctx, SystemSpec{Name: name})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// Every backend runs through the engine's multi-intruder contract.
		if AdaptSystem(sys) == nil {
			t.Errorf("%s: AdaptSystem returned nil", name)
		}
	}
	if _, err := NewSystem(ctx, SystemSpec{Name: "bogus"}); err == nil {
		t.Error("bogus system name constructed")
	}
}

func TestNewSystemFactoryMatchesDeprecatedConstructors(t *testing.T) {
	table := facadeLogicTable(t)
	factory, err := NewSystemFactory(SystemContext{Table: table}, SystemSpec{Name: "acasx"})
	if err != nil {
		t.Fatal(err)
	}
	own, intr := factory()
	specRes, err := RunEncounter(PresetHeadOn(), own, intr, DefaultRunConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	oldRes, err := RunEncounter(PresetHeadOn(), sim.NewACASXU(table), sim.NewACASXU(table), DefaultRunConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specRes, oldRes) {
		t.Error("spec-built acasx run differs from deprecated-constructor run")
	}
}
