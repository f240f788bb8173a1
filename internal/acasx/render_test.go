package acasx

import (
	"strings"
	"testing"
)

func TestRenderPolicySlice(t *testing.T) {
	table := getCoarseTable(t)
	out := table.RenderPolicySlice(0, 0, 15)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 2 header lines + 15 rows + legend.
	if len(lines) != 18 {
		t.Fatalf("%d lines, want 18:\n%s", len(lines), out)
	}
	// The co-altitude imminent-threat band must contain maneuvers.
	if !strings.ContainsAny(out, "^vCD") {
		t.Errorf("policy slice shows no advisories:\n%s", out)
	}
	// Far-altitude rows should be mostly COC: check the topmost row body.
	top := lines[2]
	body := top[strings.IndexByte(top, '|')+1:]
	dots := strings.Count(body, ".")
	if dots < len(body)*3/4 {
		t.Errorf("top row (safe altitude) has too few COC cells: %q", body)
	}
	// Degenerate row count falls back to the default.
	if out := table.RenderPolicySlice(0, 0, 1); len(strings.Split(out, "\n")) < 10 {
		t.Error("row fallback failed")
	}
}
