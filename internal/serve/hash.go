package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"acasxval/internal/campaign"
	"acasxval/internal/montecarlo"
)

// SpecHash returns the canonical content hash of a campaign spec: the
// SHA-256 (hex) of the results version and a normal-form encoding of
// spec.Canonical(). Two specs describing the same campaign — one spelling
// defaults implicitly, the other explicitly; different Parallelism — hash
// identically, so a resubmitted or overlapping sweep hits the
// completed-cell cache. Any semantic change (a sample count, a fault
// threshold, a kernel coordinate) changes the hash.
func SpecHash(spec campaign.Spec) (string, error) {
	return contentHash(campaign.ResultsVersion, "spec", spec.Canonical())
}

// CellHash identifies one campaign cell's full computation: the results
// version of this build, the shared spec knobs that enter the cell's
// record (name, sample count, base run configuration, seed — and, for
// estimator cells, the statistical model and estimator tuning) plus the
// cell's own axis point. Everything axis-shaped in the spec is dropped —
// the cell carries its own scenario parameters, system, variant and fault
// point — so the SAME cell appearing in two overlapping campaigns (one
// more system, one more preset) hashes identically and hits the
// completed-cell cache, while a cell journaled by a build under another
// results version never does. The cell index is excluded: it is a
// position, not an identity, and the server rewrites it per job when
// replaying a cached record.
func CellHash(spec campaign.Spec, c campaign.Cell) (string, error) {
	return cellHash(campaign.ResultsVersion, spec, c)
}

// cellHash is CellHash under the given results version.
func cellHash(version int, spec campaign.Spec, c campaign.Cell) (string, error) {
	shared := spec.Canonical()
	shared.Presets = nil
	shared.Scenarios = nil
	shared.ModelDraws = 0
	shared.Systems = nil
	shared.Variants = nil
	shared.Faults = nil
	shared.Estimators = nil
	if c.Estimator == "" {
		// Classic cells replay c.Params; the statistical model and the
		// estimator tuning never enter their computation.
		shared.Model = nil
		shared.Intruders = 0
		shared.EstimatorSpec = montecarlo.RareEventSpec{}
	}
	c.Index = 0
	return contentHash(version, "cell", shared, c)
}

// contentHash is the SHA-256 (hex) of kind, the results version and the
// canonical encodings of parts.
func contentHash(version int, kind string, parts ...any) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|results=%d", kind, version)
	for _, p := range parts {
		b.WriteByte('|')
		if err := canonicalEncode(&b, reflect.ValueOf(p)); err != nil {
			return "", fmt.Errorf("serve: hash %s: %w", kind, err)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// canonicalEncode writes a deterministic textual encoding of v:
//
//   - struct fields are emitted in name-sorted order (declaration order is
//     a refactoring accident, not semantics); unexported fields — caches
//     like a prepared mixture's cumulative weights — are skipped,
//   - nil and empty slices encode identically (a spec author cannot mean
//     anything by the difference),
//   - interface values carry their dynamic type name, so two Distribution
//     implementations with coincidentally equal fields stay distinct,
//   - floats use the shortest round-trip decimal with -0 folded into 0;
//     NaN and infinities are rejected (they would break equality itself).
func canonicalEncode(b *strings.Builder, v reflect.Value) error {
	if !v.IsValid() {
		b.WriteString("nil")
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("non-finite float %v", f)
		}
		if f == 0 {
			f = 0 // fold -0 into +0
		}
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := canonicalEncode(b, v.Index(i)); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case reflect.Ptr:
		if v.IsNil() {
			b.WriteString("nil")
			return nil
		}
		return canonicalEncode(b, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return nil
		}
		elem := v.Elem()
		b.WriteString(elem.Type().String())
		b.WriteByte('(')
		if err := canonicalEncode(b, elem); err != nil {
			return err
		}
		b.WriteByte(')')
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		byName := make(map[string]reflect.Value, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			names = append(names, f.Name)
			byName[f.Name] = v.Field(i)
		}
		sort.Strings(names)
		b.WriteByte('{')
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(name)
			b.WriteByte(':')
			if err := canonicalEncode(b, byName[name]); err != nil {
				return fmt.Errorf("%s.%s: %w", t.String(), name, err)
			}
		}
		b.WriteByte('}')
	case reflect.Map:
		if v.Len() == 0 {
			b.WriteString("map[]")
			return nil
		}
		keys := make([]string, 0, v.Len())
		byKey := make(map[string]reflect.Value, v.Len())
		for _, k := range v.MapKeys() {
			var kb strings.Builder
			if err := canonicalEncode(&kb, k); err != nil {
				return err
			}
			keys = append(keys, kb.String())
			byKey[kb.String()] = v.MapIndex(k)
		}
		sort.Strings(keys)
		b.WriteString("map[")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteByte(':')
			if err := canonicalEncode(b, byKey[k]); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	default:
		return fmt.Errorf("cannot canonically encode %s", v.Kind())
	}
	return nil
}
