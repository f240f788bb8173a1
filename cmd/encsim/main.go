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
// -archive replays a search's failure as it was found: the entry of a
// danger archive (casearch -out BASE writes BASE.archive.jsonl) at -rank N
// of the casearch report's fitness order, with every intruder and, for a
// fault-co-evolving search, its archived degradation profile. The entry
// is the whole encounter, so -preset and -genome cannot be set with it,
// -rank needs it, and -faults cannot override a profile the entry carries.
//
// The table-backed systems (acasx, belief) run the full-resolution logic
// table, the paper's system, built in process.
//
// Usage:
//
//	encsim -preset <name> [-intruders K] [-runs 100]
//	       [-system <name>] [-seed 1]
//	       [-svg out.svg] [-csv out.csv] [-plane plan|profile|time]
//	       [-faults <preset>]
//	encsim -genome "Gso,Vso,T,R,theta,Y,Gsi,psi,Vsi[,...]" ...
//	encsim -archive BASE.archive.jsonl [-rank N] ...
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"acasxval/internal/campaign"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/search"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
	"acasxval/internal/sys"
	"acasxval/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "encsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("encsim", flag.ExitOnError)
	var (
		preset = flags.String("preset", "headon", "encounter preset: "+
			strings.Join(encounter.PresetNames(), ", ")+" (pairwise) or "+
			strings.Join(encounter.MultiPresetNames(), ", ")+" (multi-intruder)")
		intruders = flags.Int("intruders", 0, "fan a pairwise encounter into K intruders rotated evenly around the ownship (0 keeps the scenario's own count)")
		genome    = flags.String("genome", "", "explicit K*9-parameter encounter, comma-separated (overrides -preset)")
		archive   = flags.String("archive", "", "replay an entry of a danger archive JSONL with all its intruders and fault genes (excludes -preset and -genome)")
		rank      = flags.Int("rank", 1, "1-based fitness rank of the -archive entry to replay (needs -archive)")
		system    = flags.String("system", "acasx", "system under test: "+sys.NamesList())
		runs      = flags.Int("runs", 100, "number of stochastic runs for the accident-rate estimate")
		seed      = flags.Uint64("seed", 1, "base seed")
		svgOut    = flags.String("svg", "", "write the (first-run) trajectory as SVG")
		csvOut    = flags.String("csv", "", "write the (first-run) trajectory as CSV")
		planeName = flags.String("plane", "profile", "ASCII/SVG projection: plan, profile or time")
		faults    = flags.String("faults", "", "surveillance degradation preset: "+strings.Join(fault.PresetNames(), ", ")+" (empty = clean)")
	)
	flags.Parse(args)

	set := map[string]bool{}
	flags.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["rank"] && *archive == "" {
		return fmt.Errorf("-rank needs -archive")
	}
	if *archive != "" && (set["preset"] || set["genome"]) {
		return fmt.Errorf("-archive replays the archived encounter: it excludes -preset and -genome")
	}

	var (
		m             encounter.MultiParams
		archivedFault []float64
		err           error
	)
	if *archive == "" {
		if m, err = pickEncounter(*preset, *genome); err != nil {
			return err
		}
	} else {
		e, err := loadArchiveEntry(*archive, *rank)
		if err != nil {
			return err
		}
		if len(e.Fault) != 0 && *faults != "" {
			return fmt.Errorf("-faults %s conflicts with the fault profile archived in %s rank %d", *faults, *archive, *rank)
		}
		if m, err = e.MultiEncounterParams(); err != nil {
			return err
		}
		archivedFault = e.Fault
		fmt.Fprintf(stdout, "replaying %s rank %d: %s (recorded fitness %.1f, island %d generation %d index %d)\n",
			*archive, *rank, e.Name, e.Fitness, e.Island, e.Generation, e.Index)
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
	menu, err := campaign.LoadSystems([]string{*system})
	if err != nil {
		return err
	}
	// One system per aircraft: the factory's pair covers the ownship and
	// intruder 1, each further call equips one more intruder.
	systems := sim.AppendSystemsFromPair(make([]sim.System, 0, k+1), menu[*system], k)

	g := encounter.ClassifyMulti(m)
	fmt.Fprintf(stdout, "encounter: %s\n", m)
	fmt.Fprintf(stdout, "geometry: %s, closure %.1f m/s, vertically opposed %v (dominant of %d intruder(s))\n",
		g.Category, g.ClosureRate, g.VerticallyOpposed, k)

	// Detailed first run with trajectory recording.
	cfg := sim.DefaultRunConfig()
	cfg.RecordTrajectory = true
	if cfg.Faults, err = fault.Resolve(*faults); err != nil {
		return err
	}
	if *faults != "" {
		fmt.Fprintf(stdout, "degraded surveillance: %s profile\n", *faults)
	}
	if len(archivedFault) != 0 {
		cfg.Faults = fault.FromGenes(archivedFault)
		fmt.Fprintf(stdout, "degraded surveillance: archived profile %+v (severity %.2f)\n", cfg.Faults, cfg.Faults.Severity())
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
	fmt.Fprintf(stdout, "\nrun 0: NMAC=%v minSep=%.1f m (horizontal %.1f, vertical %.1f), own alerts %d, intruder alerts %d\n",
		first.NMAC, first.MinSeparation, first.MinHorizontal, first.MinVertical,
		first.OwnAlerts(), first.IntruderAlerts())
	if k > 1 {
		fmt.Fprintf(stdout, "(rendering intruder 1 of %d; separations and NMACs above are minima over all intruders)\n", k)
	}
	fmt.Fprint(stdout, viz.RenderTrajectories(first.Trajectory, plane, 100, 24, nmacAt))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, viz.RenderSeparationSeries(first.Trajectory, 100, 12))

	if *svgOut != "" {
		if err := writeSVG(*svgOut, first.Trajectory, plane, nmacAt); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *svgOut)
	}
	if *csvOut != "" {
		if err := writeCSV(*csvOut, first.Trajectory); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvOut)
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
	fmt.Fprintf(stdout, "\naccident rate: %d/%d NMACs (95%% CI [%.2f, %.2f]), alert rate %.2f, mean min sep %.1f m\n",
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

// loadArchiveEntry returns the danger-archive entry at the 1-based
// fitness rank.
func loadArchiveEntry(path string, rank int) (search.ArchiveEntry, error) {
	entries, truncated, err := search.LoadArchiveFile(path)
	if err != nil {
		return search.ArchiveEntry{}, err
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "warning: %s ends in a half-written line (writer killed mid-record?); skipped\n", path)
	}
	if rank < 1 || rank > len(entries) {
		return search.ArchiveEntry{}, fmt.Errorf("-rank %d outside 1..%d", rank, len(entries))
	}
	return search.RankEntries(entries)[rank-1], nil
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
