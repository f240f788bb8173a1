// Package viz renders encounter trajectories and search progress as ASCII
// plots, SVG files and CSV tables — the headless stand-in for the paper's
// interactive MASON visualization (Figs. 5, 7, 8 show trajectories; Fig. 6
// plots per-encounter fitness over the course of the GA).
package viz

import (
	"fmt"
	"math"
	"strings"

	"acasxval/internal/ga"
	"acasxval/internal/sim"
)

// Plane selects a 2-D projection of the 3-D trajectories.
type Plane int

// Projections.
const (
	// PlanView projects onto the horizontal X-Y plane.
	PlanView Plane = iota + 1
	// ProfileView projects onto the X-Z (along-track vs altitude) plane.
	ProfileView
	// TimeAltitude plots altitude against time.
	TimeAltitude
)

// canvas is a simple character raster.
type canvas struct {
	w, h  int
	cells [][]byte
}

func newCanvas(w, h int) *canvas {
	c := &canvas{w: w, h: h, cells: make([][]byte, h)}
	for i := range c.cells {
		c.cells[i] = []byte(strings.Repeat(" ", w))
	}
	return c
}

func (c *canvas) set(x, y int, ch byte) {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return
	}
	c.cells[y][x] = ch
}

func (c *canvas) String() string {
	var sb strings.Builder
	for _, row := range c.cells {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// project extracts the plotted (x, y) pair of one trajectory point.
func project(p sim.TrajectoryPoint, own bool, plane Plane) (float64, float64) {
	st := p.Own
	if !own {
		st = p.Intruder
	}
	switch plane {
	case ProfileView:
		return st.Pos.X, st.Pos.Z
	case TimeAltitude:
		return p.T, st.Pos.Z
	default:
		return st.Pos.X, st.Pos.Y
	}
}

// glyph encodes a trajectory sample: lower-case while cruising, upper-case
// while the collision avoidance system is alerting (the paper's Fig. 5
// colors maneuver segments; ASCII uses case instead).
func glyph(own, alerting bool) byte {
	switch {
	case own && alerting:
		return 'O'
	case own:
		return 'o'
	case alerting:
		return 'X'
	default:
		return 'x'
	}
}

// RenderTrajectories draws both aircraft trajectories projected onto the
// requested plane as an ASCII plot of the given size. The own-ship draws as
// o/O, the intruder as x/X (upper-case while alerting); the NMAC location,
// if any, is marked '*'.
func RenderTrajectories(traj []sim.TrajectoryPoint, plane Plane, width, height int, nmacAt float64) string {
	if len(traj) == 0 {
		return "(empty trajectory)\n"
	}
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
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
	c := newCanvas(width, height)
	toCell := func(x, y float64) (int, int) {
		cx := int((x - minX) / (maxX - minX) * float64(width-1))
		cy := int((y - minY) / (maxY - minY) * float64(height-1))
		return cx, height - 1 - cy // screen Y grows downward
	}
	// Draw the intruder first so the own-ship overdraws at overlaps.
	for _, own := range []bool{false, true} {
		for _, p := range traj {
			x, y := project(p, own, plane)
			cx, cy := toCell(x, y)
			alerting := p.IntruderAlerting
			if own {
				alerting = p.OwnAlerting
			}
			c.set(cx, cy, glyph(own, alerting))
		}
	}
	// Mark the NMAC point using the own-ship position nearest in time.
	if nmacAt >= 0 {
		bestIdx := -1
		bestDt := math.Inf(1)
		for i, p := range traj {
			if dt := math.Abs(p.T - nmacAt); dt < bestDt {
				bestDt = dt
				bestIdx = i
			}
		}
		if bestIdx >= 0 {
			x, y := project(traj[bestIdx], true, plane)
			cx, cy := toCell(x, y)
			c.set(cx, cy, '*')
		}
	}
	var sb strings.Builder
	name := map[Plane]string{PlanView: "plan view (x-y)", ProfileView: "profile (x-alt)", TimeAltitude: "time-altitude"}[plane]
	fmt.Fprintf(&sb, "%s  o/O own-ship  x/X intruder (upper-case = alerting)  * NMAC\n", name)
	fmt.Fprintf(&sb, "x: [%.0f, %.0f]  y: [%.0f, %.0f]\n", minX, maxX, minY, maxY)
	sb.WriteString(c.String())
	return sb.String()
}

// RenderFitnessSeries draws the Fig. 6 scatter as ASCII: evaluation index
// on the horizontal axis, fitness on the vertical, with a boundary marked
// wherever Evaluation.Generation changes. Points from later generations
// visibly climb when the GA is guiding the search.
func RenderFitnessSeries(evals []ga.Evaluation, width, height int) string {
	if len(evals) == 0 {
		return "(no evaluations)\n"
	}
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	maxF := math.Inf(-1)
	minF := math.Inf(1)
	for _, e := range evals {
		maxF = math.Max(maxF, e.Fitness)
		minF = math.Min(minF, e.Fitness)
	}
	if maxF == minF {
		maxF = minF + 1
	}
	c := newCanvas(width, height)
	for i, e := range evals {
		cx := i * (width - 1) / max(len(evals)-1, 1)
		cy := int((e.Fitness - minF) / (maxF - minF) * float64(height-1))
		c.set(cx, height-1-cy, '+')
	}
	// Generation boundaries.
	for i := 1; i < len(evals); i++ {
		if evals[i].Generation == evals[i-1].Generation {
			continue
		}
		cx := i * (width - 1) / max(len(evals)-1, 1)
		for y := 0; y < height; y++ {
			if c.cells[y][cx] == ' ' {
				c.cells[y][cx] = '|'
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "fitness per encounter (Fig. 6): %d evaluations, fitness [%.0f, %.0f], '|' = generation boundary\n",
		len(evals), minF, maxF)
	sb.WriteString(c.String())
	return sb.String()
}
