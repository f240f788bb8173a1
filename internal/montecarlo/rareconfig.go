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
