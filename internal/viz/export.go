package viz

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"acasxval/internal/sim"
)

// WriteTrajectoryCSV exports a trajectory as CSV with one row per sample:
// t, own x/y/z, intruder x/y/z, alert flags, senses. The format is plain
// enough for any plotting tool to regenerate Figs. 5/7/8.
func WriteTrajectoryCSV(w io.Writer, traj []sim.TrajectoryPoint) error {
	cw := csv.NewWriter(w)
	header := []string{
		"t", "own_x", "own_y", "own_z", "intr_x", "intr_y", "intr_z",
		"own_alerting", "intr_alerting", "own_sense", "intr_sense", "separation",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("viz: csv: %w", err)
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', 10, 64) }
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	for _, p := range traj {
		row := []string{
			f(p.T),
			f(p.Own.Pos.X), f(p.Own.Pos.Y), f(p.Own.Pos.Z),
			f(p.Intruder.Pos.X), f(p.Intruder.Pos.Y), f(p.Intruder.Pos.Z),
			b(p.OwnAlerting), b(p.IntruderAlerting),
			strconv.Itoa(int(p.OwnSense)), strconv.Itoa(int(p.IntruderSense)),
			f(p.Own.Pos.DistanceTo(p.Intruder.Pos)),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("viz: csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("viz: csv: %w", err)
	}
	return nil
}

// WriteTrajectorySVG renders the two trajectories as a standalone SVG
// document projected onto the requested plane. Own-ship in blue, intruder
// in orange, alerting segments thickened, NMAC marked with a red circle.
func WriteTrajectorySVG(w io.Writer, traj []sim.TrajectoryPoint, plane Plane, width, height int, nmacAt float64) error {
	if len(traj) == 0 {
		return fmt.Errorf("viz: empty trajectory")
	}
	if width <= 0 {
		width = 800
	}
	if height <= 0 {
		height = 500
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range traj {
		for _, own := range []bool{true, false} {
			x, y := project(p, own, plane)
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	const margin = 20.0
	sx := func(x float64) float64 {
		return margin + (x-minX)/(maxX-minX)*(float64(width)-2*margin)
	}
	sy := func(y float64) float64 {
		return float64(height) - margin - (y-minY)/(maxY-minY)*(float64(height)-2*margin)
	}

	pr := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := pr(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height); err != nil {
		return err
	}
	if err := pr(`<rect width="100%%" height="100%%" fill="white"/>` + "\n"); err != nil {
		return err
	}
	// Trajectories as polyline segments, split on alert-state changes so
	// maneuvering segments render thicker.
	for _, own := range []bool{true, false} {
		color := "#d95f02" // intruder orange
		if own {
			color = "#1f77b4" // own-ship blue
		}
		segStart := 0
		alertOf := func(p sim.TrajectoryPoint) bool {
			if own {
				return p.OwnAlerting
			}
			return p.IntruderAlerting
		}
		flush := func(from, to int, alerting bool) error {
			if to-from < 1 {
				return nil
			}
			widthPx := 1.5
			if alerting {
				widthPx = 3.5
			}
			if err := pr(`<polyline fill="none" stroke="%s" stroke-width="%.1f" points="`, color, widthPx); err != nil {
				return err
			}
			for i := from; i <= to; i++ {
				x, y := project(traj[i], own, plane)
				if err := pr("%.1f,%.1f ", sx(x), sy(y)); err != nil {
					return err
				}
			}
			return pr(`"/>` + "\n")
		}
		for i := 1; i < len(traj); i++ {
			if alertOf(traj[i]) != alertOf(traj[segStart]) {
				if err := flush(segStart, i, alertOf(traj[segStart])); err != nil {
					return err
				}
				segStart = i
			}
		}
		if err := flush(segStart, len(traj)-1, alertOf(traj[segStart])); err != nil {
			return err
		}
		// Start marker.
		x0, y0 := project(traj[0], own, plane)
		if err := pr(`<circle cx="%.1f" cy="%.1f" r="5" fill="%s"/>`+"\n", sx(x0), sy(y0), color); err != nil {
			return err
		}
	}
	if nmacAt >= 0 {
		bestIdx, bestDt := -1, math.Inf(1)
		for i, p := range traj {
			if dt := math.Abs(p.T - nmacAt); dt < bestDt {
				bestDt = dt
				bestIdx = i
			}
		}
		if bestIdx >= 0 {
			x, y := project(traj[bestIdx], true, plane)
			if err := pr(`<circle cx="%.1f" cy="%.1f" r="8" fill="none" stroke="red" stroke-width="2.5"/>`+"\n",
				sx(x), sy(y)); err != nil {
				return err
			}
		}
	}
	return pr("</svg>\n")
}
