// Package sys is the central registry of collision avoidance backends: the
// one place a system name resolves to a constructor. Backends self-register
// under a name with documentation and a spec-driven factory; every consumer
// — the campaign engine's system axis, the search.system spec key,
// encsim's -system flag, the public facade — constructs systems
// through the registry, so adding a backend is one Register call and the
// name lists shown in errors, help text and sweep output can never drift
// apart.
package sys

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"acasxval/internal/acasx"
	"acasxval/internal/sim"
)

// Spec names a system and optionally overrides scalar parameters of its
// default configuration. The zero Params map means pure defaults; unknown
// parameter names are errors, so typos fail loudly instead of silently
// sweeping a default.
type Spec struct {
	// Name is the registered backend name.
	Name string
	// Params maps backend parameter names (see Backend.Params) to values.
	Params map[string]float64
}

// Context carries the shared resources a backend may need. Backends declare
// what they require (Backend.NeedsTable); New enforces it before the
// factory runs.
type Context struct {
	// Table is the offline-optimized logic table, required by the table
	// executives.
	Table *acasx.Table
}

// ParamDoc documents one overridable scalar parameter of a backend.
type ParamDoc struct {
	// Name is the key accepted in Spec.Params.
	Name string
	// Doc is a one-line description including units.
	Doc string
	// Default is the value used when the spec does not override it.
	Default float64
}

// Backend is one registered collision avoidance system kind.
type Backend struct {
	// Name is the registry key, as used by the campaign system axis, the
	// search.system key and encsim's -system flag.
	Name string
	// Doc is a one-line description for help text.
	Doc string
	// NeedsTable reports whether construction requires Context.Table.
	NeedsTable bool
	// Params documents the overridable parameters.
	Params []ParamDoc
	// New constructs a fresh system instance. The registry guarantees
	// spec.Name == Name and that a table is present when NeedsTable.
	New func(ctx Context, spec Spec) (sim.System, error)
}

var (
	mu       sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a backend to the registry. Registering an empty name, a nil
// constructor, or a name already taken is an error; the built-in backends
// register during package initialization, so external callers extending the
// registry see collisions with them too.
func Register(b Backend) error {
	if b.Name == "" {
		return fmt.Errorf("sys: backend with empty name")
	}
	if b.New == nil {
		return fmt.Errorf("sys: backend %q has no constructor", b.Name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[b.Name]; dup {
		return fmt.Errorf("sys: backend %q already registered", b.Name)
	}
	registry[b.Name] = b
	return nil
}

// mustRegister is Register for the built-ins, whose specs are statically
// valid.
func mustRegister(b Backend) {
	if err := Register(b); err != nil {
		panic(err)
	}
}

// Lookup returns the named backend.
func Lookup(name string) (Backend, bool) {
	mu.RLock()
	defer mu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Names lists the registered backend names in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NamesList renders the registered names as a comma-separated list, for
// help text and error messages.
func NamesList() string { return strings.Join(Names(), ", ") }

// NeedsTable reports whether the named system requires a logic table.
// Unknown names do not need a table (they fail later, by name).
func NeedsTable(name string) bool {
	b, ok := Lookup(name)
	return ok && b.NeedsTable
}

// New constructs a fresh instance of the specified system.
func New(ctx Context, spec Spec) (sim.System, error) {
	b, ok := Lookup(spec.Name)
	if !ok {
		return nil, fmt.Errorf("sys: unknown system %q (have %s)", spec.Name, NamesList())
	}
	if b.NeedsTable && ctx.Table == nil {
		return nil, fmt.Errorf("sys: system %q needs a logic table", spec.Name)
	}
	return b.New(ctx, spec)
}

// PairFactory resolves the spec once and returns a factory producing fresh
// (ownship, intruder) system pairs — the shape every Monte-Carlo and search
// consumer wants. Construction errors surface here, at resolution time; the
// returned factory panics on the (identical-input, hence unreachable)
// repeat failure.
func PairFactory(ctx Context, spec Spec) (func() (sim.System, sim.System), error) {
	if _, err := New(ctx, spec); err != nil {
		return nil, err
	}
	build := func() sim.System {
		s, err := New(ctx, spec)
		if err != nil {
			panic(err) // the spec already constructed once above
		}
		return s
	}
	return func() (sim.System, sim.System) { return build(), build() }, nil
}

// applyParams copies spec.Params onto the addressed configuration fields,
// in sorted key order so a multi-typo spec always reports the same first
// error.
func applyParams(spec Spec, fields map[string]*float64) error {
	if len(spec.Params) == 0 {
		return nil
	}
	keys := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst, ok := fields[k]
		if !ok {
			return fmt.Errorf("sys: system %q has no parameter %q", spec.Name, k)
		}
		*dst = spec.Params[k]
	}
	return nil
}
