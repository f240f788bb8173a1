package montecarlo

import (
	"fmt"
	"strconv"
	"strings"

	"acasxval/internal/config"
)

// Field suffixes of the rare-event estimator codec, relative to an axis
// prefix such as "campaign.estimator.". SpecFieldNames is the menu the
// campaign key validator reports for unknown keys.
const (
	KeyMethod       = "method"
	KeyDefensive    = "defensive"
	KeyBandwidth    = "bandwidth"
	KeyLevels       = "levels"
	KeyLevelSamples = "level.samples"
	KeyMoves        = "moves"
	KeyStep         = "step"
	KeyKernelPrefix = "kernel." // kernel.0, kernel.1, ... flat genome rows
)

// SpecFieldNames lists the spec field suffixes accepted by SpecFromConfig,
// excluding the numbered kernel rows.
func SpecFieldNames() []string {
	return []string{
		KeyMethod, KeyDefensive, KeyBandwidth,
		KeyLevels, KeyLevelSamples, KeyMoves, KeyStep,
	}
}

// IsSpecKey reports whether the suffix (a key with the axis prefix already
// stripped) belongs to the rare-event spec codec.
func IsSpecKey(suffix string) bool {
	for _, f := range SpecFieldNames() {
		if suffix == f {
			return true
		}
	}
	if rest, ok := strings.CutPrefix(suffix, KeyKernelPrefix); ok {
		_, err := strconv.Atoi(rest)
		return err == nil
	}
	return false
}

// SpecFromConfig decodes a RareEventSpec from the keys prefix+<field>.
// Kernel centers are read from consecutive prefix+"kernel.<i>" rows starting
// at 0, each a comma-separated flat K*NumParams genome. The decoded spec is
// validated.
func SpecFromConfig(c *config.Params, prefix string) (RareEventSpec, error) {
	s := RareEventSpec{}
	s.Method = c.StringOr(prefix+KeyMethod, "")
	var err error
	if s.Defensive, err = c.FloatOr(prefix+KeyDefensive, s.Defensive); err != nil {
		return RareEventSpec{}, err
	}
	if s.Bandwidth, err = c.FloatOr(prefix+KeyBandwidth, s.Bandwidth); err != nil {
		return RareEventSpec{}, err
	}
	if c.Has(prefix + KeyLevels) {
		if s.Levels, err = c.Floats(prefix + KeyLevels); err != nil {
			return RareEventSpec{}, err
		}
		if len(s.Levels) == 0 {
			// An empty levels list decodes to the same spec as an absent
			// key, so normalize to the form SpecToConfig re-emits.
			s.Levels = nil
		}
	}
	if s.LevelSamples, err = c.IntOr(prefix+KeyLevelSamples, s.LevelSamples); err != nil {
		return RareEventSpec{}, err
	}
	if s.Moves, err = c.IntOr(prefix+KeyMoves, s.Moves); err != nil {
		return RareEventSpec{}, err
	}
	if s.Step, err = c.FloatOr(prefix+KeyStep, s.Step); err != nil {
		return RareEventSpec{}, err
	}
	for i := 0; ; i++ {
		key := fmt.Sprintf("%s%s%d", prefix, KeyKernelPrefix, i)
		if !c.Has(key) {
			break
		}
		row, err := c.Floats(key)
		if err != nil {
			return RareEventSpec{}, err
		}
		if len(row) == 0 {
			return RareEventSpec{}, fmt.Errorf("montecarlo: %s is empty", key)
		}
		s.Kernels = append(s.Kernels, row)
	}
	if err := s.Validate(); err != nil {
		return RareEventSpec{}, err
	}
	return s, nil
}

// RareFromConfig decodes a rare-event run from the keys under prefix: the
// estimator spec of SpecFromConfig, and prefix+"samples" and prefix+"seed"
// over DefaultConfig. The tuning keys are read only when prefix+"method"
// names an estimator, so tuning without a method is an error, as is any
// other key under prefix that nothing read. A caller with keys of its own
// under prefix reads them first.
func RareFromConfig(c *config.Params, prefix string) (RareEventSpec, Config, error) {
	var spec RareEventSpec
	var err error
	method := c.StringOr(prefix+KeyMethod, "")
	if method != "" {
		if spec, err = SpecFromConfig(c, prefix); err != nil {
			return spec, Config{}, err
		}
	}
	cfg := DefaultConfig()
	if cfg.Samples, err = c.IntOr(prefix+"samples", cfg.Samples); err != nil {
		return spec, cfg, err
	}
	if cfg.Seed, err = c.Uint64Or(prefix+"seed", cfg.Seed); err != nil {
		return spec, cfg, err
	}
	if bad := c.Unread(prefix); len(bad) > 0 {
		if method == "" && IsSpecKey(strings.TrimPrefix(bad[0], prefix)) {
			return spec, cfg, fmt.Errorf("montecarlo: estimator tuning key %q needs %s%s", bad[0], prefix, KeyMethod)
		}
		return spec, cfg, fmt.Errorf("montecarlo: unknown key %q", bad[0])
	}
	return spec, cfg, nil
}

// SpecToConfig writes the spec under prefix as explicit field keys, the
// exact inverse of SpecFromConfig. Floats render with strconv's shortest
// round-tripping form, so decode(encode(s)) == s for every valid spec
// (FuzzRareEventSpecParams holds the codec to that). Zero-valued tuning
// fields are written too: the codec round-trips the spec as-is, leaving
// default filling to the estimator.
func SpecToConfig(s RareEventSpec, c *config.Params, prefix string) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	list := func(vs []float64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = f(v)
		}
		return strings.Join(parts, ",")
	}
	c.Set(prefix+KeyMethod, s.Method)
	c.Set(prefix+KeyDefensive, f(s.Defensive))
	c.Set(prefix+KeyBandwidth, f(s.Bandwidth))
	if len(s.Levels) > 0 {
		c.Set(prefix+KeyLevels, list(s.Levels))
	}
	c.Set(prefix+KeyLevelSamples, strconv.Itoa(s.LevelSamples))
	c.Set(prefix+KeyMoves, strconv.Itoa(s.Moves))
	c.Set(prefix+KeyStep, f(s.Step))
	for i, row := range s.Kernels {
		c.Set(fmt.Sprintf("%s%s%d", prefix, KeyKernelPrefix, i), list(row))
	}
}
