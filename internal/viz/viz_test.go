package viz

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"acasxval/internal/ga"
	"acasxval/internal/geom"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

// syntheticTrajectory builds a simple crossing trajectory with an alert
// phase in the middle.
func syntheticTrajectory(n int) []sim.TrajectoryPoint {
	traj := make([]sim.TrajectoryPoint, n)
	for i := range traj {
		t := float64(i)
		traj[i] = sim.TrajectoryPoint{
			T:        t,
			Own:      uav.State{Pos: geom.Vec3{X: t * 50, Y: 0, Z: 1000 + t}},
			Intruder: uav.State{Pos: geom.Vec3{X: 3000 - t*50, Y: 10, Z: 1000 - t}},
		}
		if i > n/3 && i < 2*n/3 {
			traj[i].OwnAlerting = true
			traj[i].OwnSense = sim.SenseUp
			traj[i].IntruderAlerting = true
			traj[i].IntruderSense = sim.SenseDown
		}
	}
	return traj
}

func TestRenderTrajectoriesAllPlanes(t *testing.T) {
	traj := syntheticTrajectory(40)
	for _, plane := range []Plane{PlanView, ProfileView, TimeAltitude} {
		out := RenderTrajectories(traj, plane, 60, 16, 20)
		if !strings.Contains(out, "o") || !strings.Contains(out, "x") {
			t.Errorf("plane %d: missing trajectory glyphs:\n%s", plane, out)
		}
		if !strings.Contains(out, "O") || !strings.Contains(out, "X") {
			t.Errorf("plane %d: missing alerting glyphs", plane)
		}
		if !strings.Contains(out, "*") {
			t.Errorf("plane %d: missing NMAC marker", plane)
		}
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if len(lines) != 2+16 {
			t.Errorf("plane %d: %d lines, want 18", plane, len(lines))
		}
	}
}

func TestRenderTrajectoriesDegenerate(t *testing.T) {
	if out := RenderTrajectories(nil, PlanView, 60, 16, -1); !strings.Contains(out, "empty") {
		t.Errorf("empty trajectory output: %q", out)
	}
	// Single stationary point: ranges collapse; must not panic or divide
	// by zero.
	traj := []sim.TrajectoryPoint{{T: 0}}
	out := RenderTrajectories(traj, PlanView, 5, 3, -1) // tiny canvas gets clamped
	if len(out) == 0 {
		t.Error("no output for degenerate trajectory")
	}
}

func TestRenderFitnessSeries(t *testing.T) {
	var evals []ga.Evaluation
	for g := 0; g < 5; g++ {
		for i := 0; i < 20; i++ {
			evals = append(evals, ga.Evaluation{
				Generation: g,
				Index:      i,
				Fitness:    float64(g*1000 + i),
			})
		}
	}
	out := RenderFitnessSeries(evals, 80, 12)
	if !strings.Contains(out, "+") {
		t.Error("no points plotted")
	}
	if !strings.Contains(out, "|") {
		t.Error("no generation boundaries")
	}
	if !strings.Contains(out, "100 evaluations") {
		t.Errorf("header wrong:\n%s", out)
	}
	if out := RenderFitnessSeries(nil, 80, 12); !strings.Contains(out, "no evaluations") {
		t.Error("empty series output wrong")
	}
	// Constant fitness: no division by zero; one generation: no boundary.
	flat := []ga.Evaluation{{Fitness: 5}, {Fitness: 5}}
	out = RenderFitnessSeries(flat, 20, 8)
	if len(out) == 0 {
		t.Error("no output for flat series")
	}
	if strings.Contains(out[strings.Index(out, "\n")+1:], "|") {
		t.Errorf("single-generation series drew a boundary:\n%s", out)
	}
}

func TestWriteTrajectoryCSV(t *testing.T) {
	traj := syntheticTrajectory(10)
	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, traj); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 11 { // header + 10 rows
		t.Fatalf("%d records, want 11", len(records))
	}
	if records[0][0] != "t" || len(records[0]) != 12 {
		t.Errorf("header = %v", records[0])
	}
	// Alert flags encoded as 0/1.
	if records[5][7] != "1" {
		t.Errorf("alert flag row 5 = %q, want 1", records[5][7])
	}
}

func TestWriteTrajectorySVG(t *testing.T) {
	traj := syntheticTrajectory(30)
	var buf bytes.Buffer
	if err := WriteTrajectorySVG(&buf, traj, PlanView, 800, 500, 15); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "polyline", "#1f77b4", "#d95f02", "stroke=\"red\""} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Alerting segments produce thick strokes.
	if !strings.Contains(out, `stroke-width="3.5"`) {
		t.Error("no thick alerting segments")
	}
	if err := WriteTrajectorySVG(&buf, nil, PlanView, 0, 0, -1); err == nil {
		t.Error("empty trajectory accepted")
	}
}

func TestSVGDefaultSize(t *testing.T) {
	traj := syntheticTrajectory(5)
	var buf bytes.Buffer
	if err := WriteTrajectorySVG(&buf, traj, ProfileView, 0, 0, -1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `width="800"`) {
		t.Error("default width not applied")
	}
}
