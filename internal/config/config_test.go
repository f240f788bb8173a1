package config

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	p, err := Parse(`
# a comment
pop.size = 200
generations = 5
crossover.prob= 0.9
elitism =true
name = tail approach search
! ECJ-style bang comment
`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Int("pop.size"); got != 200 {
		t.Errorf("pop.size = %d", got)
	}
	if got, _ := p.Int("generations"); got != 5 {
		t.Errorf("generations = %d", got)
	}
	if got, _ := p.Float("crossover.prob"); got != 0.9 {
		t.Errorf("crossover.prob = %v", got)
	}
	if got, _ := p.Bool("elitism"); !got {
		t.Error("elitism should be true")
	}
	if got, _ := p.String("name"); got != "tail approach search" {
		t.Errorf("name = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("not a key value line"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := Parse("= value"); err == nil {
		t.Error("expected empty key error")
	}
}

func TestMissingKey(t *testing.T) {
	p := New()
	if _, err := p.String("nope"); !errors.Is(err, ErrMissing) {
		t.Errorf("want ErrMissing, got %v", err)
	}
	if _, err := p.Int("nope"); !errors.Is(err, ErrMissing) {
		t.Errorf("Int: want ErrMissing, got %v", err)
	}
}

func TestTypedErrors(t *testing.T) {
	p, err := Parse("x = abc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Int("x"); err == nil {
		t.Error("Int should fail on non-integer")
	}
	if _, err := p.Float("x"); err == nil {
		t.Error("Float should fail on non-float")
	}
	if _, err := p.Bool("x"); err == nil {
		t.Error("Bool should fail on non-bool")
	}
	if _, err := p.IntOr("x", 3); err == nil {
		t.Error("IntOr should propagate malformed present values")
	}
}

func TestDefaults(t *testing.T) {
	p := New()
	if got, err := p.IntOr("k", 7); err != nil || got != 7 {
		t.Errorf("IntOr = %d, %v", got, err)
	}
	if got, err := p.FloatOr("k", 2.5); err != nil || got != 2.5 {
		t.Errorf("FloatOr = %v, %v", got, err)
	}
	if got, err := p.BoolOr("k", true); err != nil || !got {
		t.Errorf("BoolOr = %v, %v", got, err)
	}
	if got := p.StringOr("k", "d"); got != "d" {
		t.Errorf("StringOr = %q", got)
	}
}

func TestFloats(t *testing.T) {
	p, err := Parse("ranges = 1.5, 2 3,4")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Floats("ranges")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	if _, err := Parse("x = 1,foo"); err != nil {
		t.Fatal(err)
	}
	p2, _ := Parse("x = 1,foo")
	if _, err := p2.Floats("x"); err == nil {
		t.Error("Floats should fail on malformed entry")
	}
}

func TestOverride(t *testing.T) {
	p, err := Parse("a = 1\na = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Int("a"); got != 2 {
		t.Errorf("later assignment should win, got %d", got)
	}
	p.Set("a", "3")
	if got, _ := p.Int("a"); got != 3 {
		t.Errorf("Set should override, got %d", got)
	}
}

func TestUnread(t *testing.T) {
	p, err := Parse("a.x = 1\na.y = 2\nb.z = 3\nc = 4\n")
	if err != nil {
		t.Fatal(err)
	}
	p.IntOr("a.x", 0)
	p.Has("b.z")
	p.StringOr("missing", "")
	if got := p.Unread("a.", "b."); !slices.Equal(got, []string{"a.y"}) {
		t.Errorf("Unread(a., b.) = %v, want [a.y]", got)
	}
	if got := p.Unread(""); !slices.Equal(got, []string{"a.y", "c"}) {
		t.Errorf("Unread(\"\") = %v, want [a.y c]", got)
	}
}

func TestOverrideArgs(t *testing.T) {
	parse := func(p *Params) (int, error) { return p.IntOr("n", 0) }
	base := func() *Params {
		p, err := Parse("n = 1\nother = x\n")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 1},
		{[]string{"n=2"}, 2},
		{[]string{" n = 2 ", "n=3"}, 3},
	} {
		got, err := Override(base(), tc.args, parse)
		if err != nil || got != tc.want {
			t.Errorf("Override(%q) = %d, %v; want %d", tc.args, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"n=2", "nn=3"}, `"nn"`},
		{[]string{"n2"}, `"n2"`},
		{[]string{"=2"}, `"=2"`},
		{[]string{"n=banana"}, `"n"`},
	} {
		if _, err := Override(base(), tc.args, parse); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Override(%q): err %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}

func TestLoadWithParents(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.params")
	child := filepath.Join(dir, "child.params")
	if err := os.WriteFile(base, []byte("pop.size = 100\nmutation.prob = 0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	content := "parent.0 = base.params\npop.size = 200\n"
	if err := os.WriteFile(child, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(child)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Int("pop.size"); got != 200 {
		t.Errorf("child should override parent: pop.size = %d", got)
	}
	if got, _ := p.Float("mutation.prob"); got != 0.1 {
		t.Errorf("parent value lost: mutation.prob = %v", got)
	}
	if p.Has("parent.0") {
		t.Error("parent.* keys should not leak into the parameter set")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.params")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLoadIncludeCycle(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.params")
	b := filepath.Join(dir, "b.params")
	if err := os.WriteFile(a, []byte("parent.0 = b.params\nx = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("parent.0 = a.params\ny = 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(a); err == nil {
		t.Error("expected include-depth error for cyclic parents")
	}
}

func TestKeysAndDump(t *testing.T) {
	p, err := Parse("b = 2\na = 1\n")
	if err != nil {
		t.Fatal(err)
	}
	keys := p.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys = %v", keys)
	}
	dump := p.Dump()
	if !strings.Contains(dump, "a = 1\n") || !strings.Contains(dump, "b = 2\n") {
		t.Errorf("Dump = %q", dump)
	}
	// Dump must be parseable.
	p2, err := Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p2.Int("a"); got != 1 {
		t.Error("round trip failed")
	}
}
