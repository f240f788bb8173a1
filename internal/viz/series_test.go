package viz

import (
	"strings"
	"testing"
)

func TestRenderSeparationSeries(t *testing.T) {
	traj := syntheticTrajectory(40)
	out := RenderSeparationSeries(traj, 80, 12)
	if !strings.Contains(out, "*") {
		t.Error("no separation points plotted")
	}
	if !strings.Contains(out, "^") {
		t.Error("no alerting markers")
	}
	if !strings.Contains(out, "separation vs time") {
		t.Error("missing header")
	}
	if out := RenderSeparationSeries(nil, 80, 12); !strings.Contains(out, "empty") {
		t.Error("empty trajectory handled wrong")
	}
	// Single point: no division by zero.
	single := syntheticTrajectory(1)
	if out := RenderSeparationSeries(single, 5, 3); len(out) == 0 {
		t.Error("single-point series empty")
	}
}
