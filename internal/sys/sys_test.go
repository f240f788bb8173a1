package sys

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/encounter"
	"acasxval/internal/sim"
)

var (
	tableOnce sync.Once
	testTable *acasx.Table
	tableErr  error
)

func getTable(tb testing.TB) *acasx.Table {
	tb.Helper()
	tableOnce.Do(func() {
		cfg := acasx.DefaultConfig()
		cfg.Workers = 8
		testTable, tableErr = acasx.BuildTable(cfg)
	})
	if tableErr != nil {
		tb.Fatal(tableErr)
	}
	return testTable
}

// TestBuiltinsRegistered: the full backend menu is present.
func TestBuiltinsRegistered(t *testing.T) {
	want := []string{"acasx", "apf", "belief", "mpc", "none", "svo"}
	got := Names()
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("builtin %q not registered (have %v)", name, got)
		}
	}
}

// TestRoundTrip: every registered backend constructs from its bare spec and
// survives a quick seeded encounter — the registry cannot list a name the
// validation stack cannot actually run.
func TestRoundTrip(t *testing.T) {
	ctx := Context{Table: getTable(t)}
	cfg := sim.DefaultRunConfig()
	p := encounter.PresetHeadOn()
	for _, name := range Names() {
		factory, err := PairFactory(ctx, Spec{Name: name})
		if err != nil {
			t.Errorf("%s: PairFactory: %v", name, err)
			continue
		}
		own, intr := factory()
		if own == nil || intr == nil {
			t.Errorf("%s: factory returned nil system", name)
			continue
		}
		if _, err := sim.RunEncounter(p, own, intr, cfg, 3); err != nil {
			t.Errorf("%s: RunEncounter: %v", name, err)
		}
	}
}

// TestNeedsTableEnforced: table-requiring backends refuse a bare context,
// table-free backends construct without one.
func TestNeedsTableEnforced(t *testing.T) {
	for _, name := range Names() {
		_, err := New(Context{}, Spec{Name: name})
		if NeedsTable(name) {
			if err == nil {
				t.Errorf("%s: constructed without the required table", name)
			}
		} else if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestUnknownNameErrorListsBackends: the error for a bad name carries the
// full registered menu.
func TestUnknownNameErrorListsBackends(t *testing.T) {
	_, err := New(Context{}, Spec{Name: "no-such-system"})
	if err == nil {
		t.Fatal("unknown name constructed")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention registered backend %q", err, name)
		}
	}
}

// TestUnknownParamRejected: a typoed parameter is an error naming the
// system, not a silently-defaulted sweep.
func TestUnknownParamRejected(t *testing.T) {
	for _, name := range []string{"none", "svo", "mpc", "apf"} {
		_, err := New(Context{}, Spec{Name: name, Params: map[string]float64{"no_such_param": 1}})
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: unknown param accepted or unattributed: %v", name, err)
		}
	}
}

// TestParamsOverrideDefaults: a spec parameter reaches the backend
// configuration — an SVO with a huge protected radius alerts in a geometry
// the default leaves silent.
func TestParamsOverrideDefaults(t *testing.T) {
	cfg := sim.DefaultRunConfig()
	p := encounter.PresetCrossing()
	run := func(spec Spec) sim.Result {
		t.Helper()
		factory, err := PairFactory(Context{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		own, intr := factory()
		res, err := sim.RunEncounter(p, own, intr, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(Spec{Name: "svo"})
	wide := run(Spec{Name: "svo", Params: map[string]float64{"protected_radius": 3000}})
	if reflect.DeepEqual(plain, wide) {
		t.Error("protected_radius override did not change the run")
	}
}

// TestRegisterRejectsBadBackends: empty names, nil constructors and
// duplicates fail.
func TestRegisterRejectsBadBackends(t *testing.T) {
	noop := func(Context, Spec) (sim.System, error) { return sim.NoSystem{}, nil }
	if err := Register(Backend{Name: "", New: noop}); err == nil {
		t.Error("empty name registered")
	}
	if err := Register(Backend{Name: "broken"}); err == nil {
		t.Error("nil constructor registered")
	}
	if err := Register(Backend{Name: "none", New: noop}); err == nil {
		t.Error("duplicate name registered")
	}
}

// TestRegisterExtends: an external backend becomes constructible and shows
// up in Names.
func TestRegisterExtends(t *testing.T) {
	name := "test-extension"
	if err := Register(Backend{
		Name: name,
		Doc:  "registry extension test double",
		New:  func(Context, Spec) (sim.System, error) { return sim.NoSystem{}, nil },
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Context{}, Spec{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(sim.NoSystem); !ok {
		t.Errorf("extension constructed %T", s)
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Errorf("extension missing from Names() %v", Names())
	}
}

// TestNoneIsTheSkippedNoSystem: the "none" backend must hand out the
// engine's own sim.NoSystem, the one type the encounter runner recognizes
// as unequipped and flies without surveillance. A wrapper would give
// bit-identical results, only slower, so no output test would notice.
func TestNoneIsTheSkippedNoSystem(t *testing.T) {
	factory, err := PairFactory(Context{}, Spec{Name: "none"})
	if err != nil {
		t.Fatal(err)
	}
	own, intr := factory()
	for _, s := range []sim.System{own, intr} {
		if _, ok := s.(sim.NoSystem); !ok {
			t.Errorf("the none backend built a %T, not sim.NoSystem", s)
		}
	}
}
