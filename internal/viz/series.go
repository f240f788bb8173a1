package viz

import (
	"fmt"
	"strings"

	"acasxval/internal/geom"
	"acasxval/internal/sim"
)

// RenderSeparationSeries plots the 3-D separation between the two aircraft
// against time, with the NMAC thresholds marked. Alerting periods of either
// aircraft are flagged on a status line beneath the chart — the quick-look
// diagnostic for "did the system alert, when, and did separation recover".
func RenderSeparationSeries(traj []sim.TrajectoryPoint, width, height int) string {
	if len(traj) == 0 {
		return "(empty trajectory)\n"
	}
	if width < 20 {
		width = 20
	}
	if height < 6 {
		height = 6
	}
	maxSep := 0.0
	for _, p := range traj {
		if d := p.Own.Pos.DistanceTo(p.Intruder.Pos); d > maxSep {
			maxSep = d
		}
	}
	if maxSep == 0 {
		maxSep = 1
	}
	c := newCanvas(width, height)
	// NMAC horizontal-threshold guide line.
	if geom.NMACHorizontal < maxSep {
		gy := height - 1 - int(geom.NMACHorizontal/maxSep*float64(height-1))
		for x := 0; x < width; x++ {
			c.set(x, gy, '-')
		}
	}
	alertRow := make([]byte, width)
	for i := range alertRow {
		alertRow[i] = ' '
	}
	t0 := traj[0].T
	t1 := traj[len(traj)-1].T
	if t1 == t0 {
		t1 = t0 + 1
	}
	for _, p := range traj {
		x := int((p.T - t0) / (t1 - t0) * float64(width-1))
		d := p.Own.Pos.DistanceTo(p.Intruder.Pos)
		y := height - 1 - int(d/maxSep*float64(height-1))
		c.set(x, y, '*')
		if p.OwnAlerting || p.IntruderAlerting {
			alertRow[x] = '^'
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "separation vs time: t [%.0f, %.0f] s, sep [0, %.0f] m ('-' = NMAC horizontal threshold)\n",
		t0, t1, maxSep)
	sb.WriteString(c.String())
	sb.Write(alertRow)
	sb.WriteString("  (^ = alerting)\n")
	return sb.String()
}
