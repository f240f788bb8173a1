// Package config parses ECJ-style parameter files.
//
// The paper drives its genetic algorithm through ECJ, which is configured by
// plain-text parameter files of `key = value` lines ("In the parameter file
// we can set the size of the population, the number of generations and the
// selection mechanism etc."). This package reproduces that workflow for the
// Go tools: files are parsed into a Params map with typed getters, `#`
// comments, blank lines, and `parent.N = file` style includes resolved
// relative to the including file.
package config

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrMissing is wrapped by lookups of absent keys.
var ErrMissing = errors.New("config: missing parameter")

// Params holds parsed key/value parameters and records the keys its
// getters (and Has) read. Keys are case-sensitive, as in ECJ.
type Params struct {
	values map[string]string
	read   map[string]bool // keys looked up by a getter or Has
}

// New returns an empty parameter set.
func New() *Params {
	return &Params{values: make(map[string]string), read: make(map[string]bool)}
}

// Parse parses parameter text. Later assignments override earlier ones.
func Parse(text string) (*Params, error) {
	p := New()
	if err := p.merge(text, ""); err != nil {
		return nil, err
	}
	return p, nil
}

// Load reads and parses a parameter file, resolving `parent.N` includes
// relative to the file's directory. Parent files are loaded first so the
// child's assignments override them, as in ECJ.
func Load(path string) (*Params, error) {
	p := New()
	if err := p.loadFile(path, 0); err != nil {
		return nil, err
	}
	return p, nil
}

const maxIncludeDepth = 16

func (p *Params) loadFile(path string, depth int) error {
	if depth > maxIncludeDepth {
		return fmt.Errorf("config: include depth exceeds %d at %q", maxIncludeDepth, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	// First pass: collect parents so they are merged before this file's own
	// assignments.
	child := New()
	if err := child.merge(string(data), path); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	for _, key := range child.Keys() {
		if !strings.HasPrefix(key, "parent.") {
			continue
		}
		parentPath := child.values[key]
		if !filepath.IsAbs(parentPath) {
			parentPath = filepath.Join(dir, parentPath)
		}
		if err := p.loadFile(parentPath, depth+1); err != nil {
			return err
		}
	}
	for k, v := range child.values {
		if strings.HasPrefix(k, "parent.") {
			continue
		}
		p.values[k] = v
	}
	return nil
}

func (p *Params) merge(text, source string) error {
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "!") {
			continue
		}
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			where := source
			if where == "" {
				where = "<inline>"
			}
			return fmt.Errorf("config: %s:%d: not a key = value line: %q", where, lineNo+1, line)
		}
		key = strings.TrimSpace(key)
		if key == "" {
			return fmt.Errorf("config: %s:%d: empty key", source, lineNo+1)
		}
		p.values[key] = strings.TrimSpace(value)
	}
	return nil
}

// Set assigns a parameter, overriding any previous value.
func (p *Params) Set(key, value string) { p.values[key] = value }

// lookup returns the value of key and records the key as read.
func (p *Params) lookup(key string) (string, bool) {
	p.read[key] = true
	v, ok := p.values[key]
	return v, ok
}

// Has reports whether key is present.
func (p *Params) Has(key string) bool {
	_, ok := p.lookup(key)
	return ok
}

// Keys returns all keys in sorted order.
func (p *Params) Keys() []string {
	keys := make([]string, 0, len(p.values))
	for k := range p.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String returns the raw value of key.
func (p *Params) String(key string) (string, error) {
	v, ok := p.lookup(key)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrMissing, key)
	}
	return v, nil
}

// StringOr returns the value of key, or def if absent.
func (p *Params) StringOr(key, def string) string {
	if v, ok := p.lookup(key); ok {
		return v
	}
	return def
}

// Int returns the value of key parsed as an integer.
func (p *Params) Int(key string) (int, error) {
	v, err := p.String(key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("config: %q: %w", key, err)
	}
	return n, nil
}

// IntOr returns the integer value of key, or def if absent. A present but
// malformed value is an error.
func (p *Params) IntOr(key string, def int) (int, error) {
	if !p.Has(key) {
		return def, nil
	}
	return p.Int(key)
}

// Uint64 returns the value of key parsed as a uint64, rejecting negative
// values instead of wrapping them.
func (p *Params) Uint64(key string) (uint64, error) {
	v, err := p.String(key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("config: %q: %w", key, err)
	}
	return n, nil
}

// Uint64Or returns the uint64 value of key, or def if absent.
func (p *Params) Uint64Or(key string, def uint64) (uint64, error) {
	if !p.Has(key) {
		return def, nil
	}
	return p.Uint64(key)
}

// Float returns the value of key parsed as a float64.
func (p *Params) Float(key string) (float64, error) {
	v, err := p.String(key)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("config: %q: %w", key, err)
	}
	return f, nil
}

// FloatOr returns the float value of key, or def if absent.
func (p *Params) FloatOr(key string, def float64) (float64, error) {
	if !p.Has(key) {
		return def, nil
	}
	return p.Float(key)
}

// Bool returns the value of key parsed as a boolean (true/false, as ECJ).
func (p *Params) Bool(key string) (bool, error) {
	v, err := p.String(key)
	if err != nil {
		return false, err
	}
	b, err := strconv.ParseBool(strings.ToLower(v))
	if err != nil {
		return false, fmt.Errorf("config: %q: %w", key, err)
	}
	return b, nil
}

// BoolOr returns the boolean value of key, or def if absent.
func (p *Params) BoolOr(key string, def bool) (bool, error) {
	if !p.Has(key) {
		return def, nil
	}
	return p.Bool(key)
}

// Strings returns the comma- or whitespace-separated list value of key.
// Empty elements are dropped, so trailing commas are harmless.
func (p *Params) Strings(key string) ([]string, error) {
	v, err := p.String(key)
	if err != nil {
		return nil, err
	}
	fields := strings.FieldsFunc(v, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	return fields, nil
}

// StringsOr returns the list value of key, or def if absent.
func (p *Params) StringsOr(key string, def []string) []string {
	if !p.Has(key) {
		return def
	}
	v, _ := p.Strings(key)
	return v
}

// Floats returns the value of key parsed as a comma- or space-separated list
// of float64s.
func (p *Params) Floats(key string) ([]float64, error) {
	fields, err := p.Strings(key)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(fields))
	for _, f := range fields {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("config: %q: %w", key, err)
		}
		out = append(out, x)
	}
	return out, nil
}

// Unread returns, in sorted order, the present keys that start with one of
// prefixes and that no getter has read. A parser calls it after reading
// everything it knows under its own prefixes, so a misspelt key fails
// instead of silently leaving its setting at the default.
func (p *Params) Unread(prefixes ...string) []string {
	var out []string
	for _, k := range p.Keys() {
		if p.read[k] {
			continue
		}
		for _, prefix := range prefixes {
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// Override assigns each `key=value` argument to p in order — the same
// assignment a `key = value` line of a parameter file makes, so arguments
// override the file and a later argument overrides an earlier one — and
// then parses p with parse. An argument without `=`, or whose key parse
// did not read, is an error naming it.
func Override[T any](p *Params, args []string, parse func(*Params) (T, error)) (T, error) {
	var zero T
	keys := make([]string, 0, len(args))
	for _, arg := range args {
		key, value, ok := strings.Cut(arg, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return zero, fmt.Errorf("config: argument %q is not key=value", arg)
		}
		p.Set(key, strings.TrimSpace(value))
		keys = append(keys, key)
	}
	v, err := parse(p)
	if err != nil {
		return zero, err
	}
	for _, key := range keys {
		if !p.read[key] {
			return zero, fmt.Errorf("config: unknown key %q", key)
		}
	}
	return v, nil
}

// Dump renders the parameters back as a sorted parameter file.
func (p *Params) Dump() string {
	var sb strings.Builder
	for _, k := range p.Keys() {
		fmt.Fprintf(&sb, "%s = %s\n", k, p.values[k])
	}
	return sb.String()
}
