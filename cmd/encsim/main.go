// Command encsim simulates a single encounter — two-UAV or one ownship
// against K intruders — and renders the trajectories: the headless
// equivalent of the paper's visualization mode used for Fig. 5 (coordinated
// head-on avoidance) and Figs. 7-8 (typical GA-discovered collision
// situations).
//
// -preset accepts both the pairwise presets and the multi-intruder ones
// (convergepair, crossstream, sandwich). -intruders K fans a pairwise
// geometry into K copies rotated evenly around the ownship — a quick way
// to stress the multi-threat fusion with any classic preset. -genome takes
// K*9 comma-separated values for an explicit K-intruder encounter.
//
// Usage:
//
//	encsim -preset <name> [-intruders K] [-runs 100]
//	       [-system <name>] [-table table.acxt] [-seed 1]
//	       [-svg out.svg] [-csv out.csv] [-plane plan|profile|time]
//	       [-faults <preset>]
//	encsim -genome "Gso,Vso,T,R,theta,Y,Gsi,psi,Vsi[,...]" ...
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"acasxval/internal/campaign"
	"acasxval/internal/core"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
	"acasxval/internal/sys"
	"acasxval/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "encsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		preset = flag.String("preset", "headon", "encounter preset: "+
			strings.Join(encounter.PresetNames(), ", ")+" (pairwise) or "+
			strings.Join(encounter.MultiPresetNames(), ", ")+" (multi-intruder)")
		intruders = flag.Int("intruders", 0, "fan a pairwise encounter into K intruders rotated evenly around the ownship (0 keeps the scenario's own count)")
		genome    = flag.String("genome", "", "explicit K*9-parameter encounter, comma-separated (overrides -preset)")
		foundCSV  = flag.String("found", "", "replay an encounter from a casearch -found-csv file (overrides -preset)")
		foundRank = flag.Int("found-rank", 1, "1-based row to replay from the -found file")
		system    = flag.String("system", "acasx", "system under test: "+sys.NamesList())
		tablePath = flag.String("table", "", "logic table path (built on the fly when absent)")
		coarse    = flag.Bool("coarse", false, "use the reduced-resolution table when building")
		runs      = flag.Int("runs", 100, "number of stochastic runs for the accident-rate estimate")
		seed      = flag.Uint64("seed", 1, "base seed")
		svgOut    = flag.String("svg", "", "write the (first-run) trajectory as SVG")
		csvOut    = flag.String("csv", "", "write the (first-run) trajectory as CSV")
		planeName = flag.String("plane", "profile", "ASCII/SVG projection: plan, profile or time")
		faults    = flag.String("faults", "", "surveillance degradation preset: "+strings.Join(fault.PresetNames(), ", ")+" (empty = clean)")
	)
	flag.Parse()

	m, err := pickEncounter(*preset, *genome)
	if err != nil {
		return err
	}
	if *foundCSV != "" {
		m, err = loadFound(*foundCSV, *foundRank)
		if err != nil {
			return err
		}
	}
	if *intruders < 0 {
		return fmt.Errorf("-intruders %d < 0", *intruders)
	}
	if *intruders > 0 {
		if m.NumIntruders() > 1 && *intruders != m.NumIntruders() {
			return fmt.Errorf("-intruders %d conflicts with a scenario that already has %d intruders",
				*intruders, m.NumIntruders())
		}
		if m.NumIntruders() == 1 {
			m = fanEncounter(m.Intruders[0], *intruders)
		}
	}
	k := m.NumIntruders()
	plane, err := pickPlane(*planeName)
	if err != nil {
		return err
	}
	menu, err := campaign.LoadSystems([]string{*system}, *tablePath, *coarse)
	if err != nil {
		return err
	}
	// One system per aircraft: the factory's pair covers the ownship and
	// intruder 1, each further call equips one more intruder.
	systems := sim.AppendSystemsFromPair(make([]sim.System, 0, k+1), menu[*system], k)

	g := encounter.ClassifyMulti(m)
	fmt.Printf("encounter: %s\n", m)
	fmt.Printf("geometry: %s, closure %.1f m/s, vertically opposed %v (dominant of %d intruder(s))\n",
		g.Category, g.ClosureRate, g.VerticallyOpposed, k)

	// Detailed first run with trajectory recording.
	cfg := sim.DefaultRunConfig()
	cfg.RecordTrajectory = true
	if cfg.Faults, err = fault.Resolve(*faults); err != nil {
		return err
	}
	if *faults != "" {
		fmt.Printf("degraded surveillance: %s profile\n", *faults)
	}
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	first, err := runner.RunMulti(m, systems, *seed)
	if err != nil {
		return err
	}
	nmacAt := -1.0
	if first.NMAC {
		nmacAt = first.NMACTime
	}
	fmt.Printf("\nrun 0: NMAC=%v minSep=%.1f m (horizontal %.1f, vertical %.1f), own alerts %d, intruder alerts %d\n",
		first.NMAC, first.MinSeparation, first.MinHorizontal, first.MinVertical,
		first.OwnAlerts(), first.IntruderAlerts())
	if k > 1 {
		fmt.Printf("(rendering intruder 1 of %d; separations and NMACs above are minima over all intruders)\n", k)
	}
	fmt.Print(viz.RenderTrajectories(first.Trajectory, plane, 100, 24, nmacAt))
	fmt.Println()
	fmt.Print(viz.RenderSeparationSeries(first.Trajectory, 100, 12))

	if *svgOut != "" {
		if err := writeSVG(*svgOut, first.Trajectory, plane, nmacAt); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
	if *csvOut != "" {
		if err := writeCSV(*csvOut, first.Trajectory); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}

	// Accident-rate estimate over stochastic runs (the section VII
	// statistic: "about 80 to 90 out of 100 simulation runs of such an
	// encounter would result in mid-air collisions ... in a head-on
	// encounter less than 5 out of 100").
	cfg.RecordTrajectory = false
	if err := runner.Reconfigure(cfg); err != nil {
		return err
	}
	nmacs, alerted := 0, 0
	var sep stats.Accumulator
	for i := 0; i < *runs; i++ {
		res, err := runner.RunMulti(m, systems, stats.DeriveSeed(*seed, i))
		if err != nil {
			return err
		}
		if res.NMAC {
			nmacs++
		}
		if res.Alerted() {
			alerted++
		}
		sep.Add(res.MinSeparation)
	}
	ci := stats.WilsonCI(nmacs, *runs, 0.95)
	fmt.Printf("\naccident rate: %d/%d NMACs (95%% CI [%.2f, %.2f]), alert rate %.2f, mean min sep %.1f m\n",
		nmacs, *runs, ci.Lo, ci.Hi, float64(alerted)/float64(*runs), sep.Mean())
	return nil
}

func pickEncounter(preset, genome string) (encounter.MultiParams, error) {
	if genome == "" {
		return encounter.MultiPreset(preset)
	}
	fields := strings.Split(genome, ",")
	if len(fields)%encounter.NumParams != 0 {
		return encounter.MultiParams{}, fmt.Errorf("genome has %d fields, want a multiple of %d", len(fields), encounter.NumParams)
	}
	v := make([]float64, len(fields))
	for i, f := range fields {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return encounter.MultiParams{}, fmt.Errorf("genome field %d: %w", i, err)
		}
		v[i] = x
	}
	return encounter.MultiFromVector(v)
}

// fanEncounter spreads k copies of a pairwise geometry evenly around the
// ownship: copy i approaches with its CPA position and bearing rotated by
// i/k of a full turn, so one classic preset becomes a k-threat convergence.
func fanEncounter(p encounter.Params, k int) encounter.MultiParams {
	out := make([]encounter.Params, k)
	for i := range out {
		rot := 2 * math.Pi * float64(i) / float64(k)
		q := p
		q.ApproachAngle = math.Mod(p.ApproachAngle+rot, 2*math.Pi)
		q.IntruderBearing = math.Mod(p.IntruderBearing+rot, 2*math.Pi)
		out[i] = q
	}
	return encounter.MultiOf(out...)
}

func loadFound(path string, rank int) (encounter.MultiParams, error) {
	f, err := os.Open(path)
	if err != nil {
		return encounter.MultiParams{}, err
	}
	defer f.Close()
	found, err := core.ReadFound(f)
	if err != nil {
		return encounter.MultiParams{}, err
	}
	if rank < 1 || rank > len(found) {
		return encounter.MultiParams{}, fmt.Errorf("found rank %d outside 1..%d", rank, len(found))
	}
	fmt.Printf("replaying %s rank %d (recorded fitness %.1f, generation %d)\n",
		path, rank, found[rank-1].Fitness, found[rank-1].Generation)
	return found[rank-1].Params.Multi(), nil
}

func pickPlane(name string) (viz.Plane, error) {
	switch name {
	case "plan":
		return viz.PlanView, nil
	case "profile":
		return viz.ProfileView, nil
	case "time":
		return viz.TimeAltitude, nil
	default:
		return 0, fmt.Errorf("unknown plane %q (want plan, profile or time)", name)
	}
}

func writeSVG(path string, traj []sim.TrajectoryPoint, plane viz.Plane, nmacAt float64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return viz.WriteTrajectorySVG(f, traj, plane, 900, 560, nmacAt)
}

func writeCSV(path string, traj []sim.TrajectoryPoint) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return viz.WriteTrajectoryCSV(f, traj)
}
