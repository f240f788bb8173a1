package montecarlo

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"acasxval/internal/config"
	"acasxval/internal/durable"
	"acasxval/internal/fault"
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

// RareJob is a rare-event estimation run: one estimator spec and run
// config, estimated for each named system in list order.
type RareJob struct {
	// Name labels the job.
	Name string
	// Systems names the systems under test on a campaign.SystemSet menu.
	Systems []string
	Spec    RareEventSpec
	Config  Config
}

// RareFromConfig decodes a rare-event job from the rare.* keys:
// rare.name (default "rare"), rare.system (a list, default "none"), the
// estimator spec of SpecFromConfig, the surveillance degradation profile
// of fault.FromConfig under "rare.faults.", and rare.samples and rare.seed
// over DefaultConfig. The tuning keys are read only when rare.method names
// an estimator, so tuning without a method is an error, as is any other
// rare.* key that nothing read.
func RareFromConfig(c *config.Params) (RareJob, error) {
	const prefix = "rare."
	job := RareJob{
		Name:    c.StringOr(prefix+"name", "rare"),
		Systems: c.StringsOr(prefix+"system", []string{"none"}),
		Config:  DefaultConfig(),
	}
	if len(job.Systems) == 0 {
		return job, fmt.Errorf("montecarlo: empty %ssystem", prefix)
	}
	var err error
	method := c.StringOr(prefix+KeyMethod, "")
	if method != "" {
		if job.Spec, err = SpecFromConfig(c, prefix); err != nil {
			return job, err
		}
	}
	if job.Config.Run.Faults, err = fault.FromConfig(c, prefix+"faults."); err != nil {
		return job, fmt.Errorf("montecarlo: %w", err)
	}
	if job.Config.Samples, err = c.IntOr(prefix+"samples", job.Config.Samples); err != nil {
		return job, err
	}
	if job.Config.Seed, err = c.Uint64Or(prefix+"seed", job.Config.Seed); err != nil {
		return job, err
	}
	if bad := c.Unread(prefix); len(bad) > 0 {
		if method == "" && IsSpecKey(strings.TrimPrefix(bad[0], prefix)) {
			return job, fmt.Errorf("montecarlo: estimator tuning key %q needs %s%s", bad[0], prefix, KeyMethod)
		}
		return job, fmt.Errorf("montecarlo: unknown key %q", bad[0])
	}
	return job, nil
}

// Run estimates P(NMAC) for each of the job's systems in list order
// against the default pairwise encounter model (the one-intruder case of
// the K-intruder model), reusing one Scratch across the systems;
// Config.Parallelism sets the episode workers, which leave every estimate
// unchanged. started, when non-nil, hears each system's name before its
// estimate begins. A failed or cancelled run returns the estimates of the
// systems that completed alongside the error.
func (j RareJob) Run(ctx context.Context, systems map[string]SystemFactory, started func(system string)) ([]*Estimate, error) {
	model := MultiEncounterModel{Intruders: []EncounterModel{DefaultEncounterModel()}}
	var scratch Scratch
	ests := make([]*Estimate, 0, len(j.Systems))
	for _, name := range j.Systems {
		factory, ok := systems[name]
		if !ok {
			return ests, fmt.Errorf("montecarlo: system %q not available", name)
		}
		if started != nil {
			started(name)
		}
		est, err := EstimateRareMultiWithScratchContext(ctx, model, factory, j.Config, j.Spec, &scratch)
		if err != nil {
			return ests, err
		}
		ests = append(ests, est)
	}
	return ests, nil
}

// Summary renders the estimates of the job's leading systems (all of
// them, or the prefix a stopped run completed) as a table: P(NMAC) with
// its confidence interval, plus ESS and VRF under an estimator, or alerts,
// separation and each system's risk ratio against "none" under plain
// Monte Carlo.
func (j RareJob) Summary(ests []*Estimate) string {
	var b strings.Builder
	if j.Spec.Method != "" {
		fmt.Fprintf(&b, "%-8s %12s %26s %10s %8s\n", "system", "P(NMAC)", "95% CI", "ESS", "VRF")
		for i, est := range ests {
			fmt.Fprintf(&b, "%-8s %12.3e [%10.3e, %10.3e] %10.1f %8.1f\n",
				j.Systems[i], est.PNMAC, est.PNMACCI.Lo, est.PNMACCI.Hi, est.ESS, est.VarianceReduction)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s %10s %22s %10s %12s %14s\n", "system", "P(NMAC)", "95% CI", "alerts", "alert rate", "mean min sep")
	var base *Estimate
	for i, est := range ests {
		fmt.Fprintf(&b, "%-8s %10.4f [%8.4f, %8.4f] %10.2f %12.2f %12.1f m\n",
			j.Systems[i], est.PNMAC, est.PNMACCI.Lo, est.PNMACCI.Hi, est.MeanAlerts, est.AlertRate, est.MeanMinSeparation)
		if j.Systems[i] == "none" {
			base = est
		}
	}
	if base != nil {
		for i, est := range ests {
			if j.Systems[i] == "none" {
				continue
			}
			if ratio, err := RiskRatio(est, base); err == nil {
				fmt.Fprintf(&b, "\nrisk ratio %s vs unequipped: %.4f", j.Systems[i], ratio)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Artifacts renders the job's artifact set from the estimates of its
// leading systems: ".result.json" holds one Estimate per line in list
// order and ".summary.txt" the Summary table.
func (j RareJob) Artifacts(ests []*Estimate) ([]durable.Artifact, error) {
	result, err := durable.JSONL(ests)
	if err != nil {
		return nil, err
	}
	return []durable.Artifact{
		{Suffix: ".result.json", Data: result},
		{Suffix: ".summary.txt", Data: []byte(j.Summary(ests))},
	}, nil
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
