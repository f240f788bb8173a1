package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync/atomic"

	"acasxval/internal/encounter"
	"acasxval/internal/geom"
	"acasxval/internal/stats"
)

// Rare-event estimation (ROADMAP item 2): realistic airspace P(NMAC) sits
// far below what brute-force Monte-Carlo can resolve at any worker count.
// This file adds two estimators that trade the iid sampling of brute force for
// variance reduction while keeping its contract — deterministic for a given
// seed and bit-identical for any worker count:
//
//   - Importance sampling (MethodIS / MethodSNIS): episodes are drawn from a
//     defensive mixture q = α·p + (1-α)/M · Σ kernels, where p is the
//     encounter model itself and each kernel is a truncated-normal bump
//     centered on a danger-archive genome — the adversarial search's library
//     of known failure modes. Every episode carries the likelihood ratio
//     w = p(x)/q(x) evaluated on the raw draw vector; because q contains p
//     with weight α, the weights are bounded by 1/α and the estimator cannot
//     degenerate. MethodIS averages w·1{NMAC} (unbiased); MethodSNIS
//     normalizes by Σw (biased O(1/N), often lower variance).
//
//   - Multi-level splitting (MethodSplit): subset simulation on the episode
//     minimum 3-D separation. P(NMAC) is factored into conditional
//     probabilities across a decreasing ladder of separation levels; each
//     level is estimated by Markov chains (random-walk Metropolis in raw
//     parameter space, fresh dynamics stream per accepted move) seeded from
//     the previous level's survivors. Fixed levels and fixed per-level
//     episode budgets keep the whole procedure counter-seeded: stage s,
//     chain c derives its RNG from (seed, s, c) alone.
type RareEventSpec struct {
	// Method selects the estimator: MethodBruteForce (or ""), MethodIS,
	// MethodSNIS or MethodSplit.
	Method string

	// Kernels holds the proposal kernel centers for the IS methods, one
	// flat K*NumParams genome per kernel — typically danger-archive entry
	// Params. Empty means pure target sampling (the proposal degenerates
	// to p and the weights to 1).
	Kernels [][]float64
	// Defensive is the mixture weight α on the target model itself
	// (default 0.5); likelihood-ratio weights are bounded by 1/α.
	Defensive float64
	// Bandwidth floors each kernel dimension's truncated-normal sigma at
	// this fraction of the dimension's support width (default 0.1). With
	// two or more kernels the sigma is the spread of the archive centers
	// along that dimension when larger — see newProposal.
	Bandwidth float64

	// Levels is the decreasing ladder of 3-D minimum-separation thresholds
	// (metres) for MethodSplit. The last level must not be below the NMAC
	// diagonal √(NMACHorizontal² + NMACVertical²) ≈ 155.4 m, which
	// guarantees every NMAC episode lies inside the final subset.
	Levels []float64
	// LevelSamples is the per-stage episode budget (default cfg.Samples).
	LevelSamples int
	// Moves is the number of Metropolis moves per chain per stage
	// (default 2).
	Moves int
	// Step scales the random-walk proposal sigma as a fraction of each
	// dimension's support width (default 0.25).
	Step float64
}

// Estimator method names.
const (
	MethodBruteForce = "bruteforce"
	MethodIS         = "is"
	MethodSNIS       = "snis"
	MethodSplit      = "split"
)

// Methods lists the accepted estimator names.
func Methods() []string {
	return []string{MethodBruteForce, MethodIS, MethodSNIS, MethodSplit}
}

// NMACRadius is the 3-D separation below which an NMAC episode's minimum
// separation must lie: an NMAC instant has horizontal distance under
// NMACHorizontal and vertical under NMACVertical simultaneously, so its 3-D
// distance is under the diagonal.
var NMACRadius = math.Hypot(geom.NMACHorizontal, geom.NMACVertical)

// DefaultRareEventSpec returns a ready-to-run spec for the given method:
// defensive weight 0.5, bandwidth 0.1, a 450/250/160 m level ladder with
// 2 moves per chain and step 0.25.
func DefaultRareEventSpec(method string) RareEventSpec {
	return RareEventSpec{
		Method:    method,
		Defensive: 0.5,
		Bandwidth: 0.1,
		Levels:    []float64{450, 250, 160},
		Moves:     2,
		Step:      0.25,
	}
}

// withDefaults fills unset tuning fields.
func (s RareEventSpec) withDefaults() RareEventSpec {
	d := DefaultRareEventSpec(s.Method)
	if s.Defensive == 0 {
		s.Defensive = d.Defensive
	}
	if s.Bandwidth == 0 {
		s.Bandwidth = d.Bandwidth
	}
	if len(s.Levels) == 0 {
		s.Levels = d.Levels
	}
	if s.Moves == 0 {
		s.Moves = d.Moves
	}
	if s.Step == 0 {
		s.Step = d.Step
	}
	return s
}

// Validate checks the spec. Kernel genome lengths are checked against the
// model at estimation time, since the spec alone does not know K.
func (s RareEventSpec) Validate() error {
	switch s.Method {
	case "", MethodBruteForce, MethodIS, MethodSNIS, MethodSplit:
	default:
		return fmt.Errorf("montecarlo: unknown estimator method %q (want one of %v)", s.Method, Methods())
	}
	if s.Defensive < 0 || s.Defensive > 1 {
		return fmt.Errorf("montecarlo: defensive weight %v outside [0, 1]", s.Defensive)
	}
	if (s.Method == MethodIS || s.Method == MethodSNIS) && len(s.Kernels) > 0 && s.withDefaults().Defensive <= 0 {
		return fmt.Errorf("montecarlo: importance sampling with kernels needs a positive defensive weight (weights are unbounded otherwise)")
	}
	if s.Bandwidth < 0 {
		return fmt.Errorf("montecarlo: negative bandwidth %v", s.Bandwidth)
	}
	if s.Method == MethodSplit {
		levels := s.withDefaults().Levels
		for i, l := range levels {
			if i > 0 && l >= levels[i-1] {
				return fmt.Errorf("montecarlo: splitting levels must strictly decrease (level %d: %v >= %v)", i, l, levels[i-1])
			}
		}
		if last := levels[len(levels)-1]; last < NMACRadius {
			return fmt.Errorf("montecarlo: last splitting level %v m is below the NMAC diagonal %.2f m; NMAC episodes could escape the final subset", last, NMACRadius)
		}
	}
	if s.LevelSamples < 0 {
		return fmt.Errorf("montecarlo: negative LevelSamples %d", s.LevelSamples)
	}
	if s.Moves < 0 {
		return fmt.Errorf("montecarlo: negative Moves %d", s.Moves)
	}
	if s.Step < 0 {
		return fmt.Errorf("montecarlo: negative Step %v", s.Step)
	}
	return nil
}

// EstimateRareMultiWithScratchContext estimates event probabilities with
// the estimator the spec selects. An empty method or MethodBruteForce is
// exactly EvaluateMultiWithScratchContext; MethodIS and MethodSNIS sample a
// defensive proposal mixture, MethodSplit walks a separation-level ladder.
// Scratch reuse, determinism and worker-count invariance match the
// brute-force kernel's. A cancelled ctx stops the episode loops (and, for
// splitting, the stage ladder) and returns ctx.Err() with no estimate.
func EstimateRareMultiWithScratchContext(ctx context.Context, model MultiEncounterModel, factory SystemFactory, cfg Config, spec RareEventSpec, scratch *Scratch) (*Estimate, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Method {
	case "", MethodBruteForce:
		return EvaluateMultiWithScratchContext(ctx, model, factory, cfg, scratch)
	case MethodIS, MethodSNIS:
		return estimateIS(ctx, model, factory, cfg, spec.withDefaults(), scratch)
	case MethodSplit:
		return estimateSplit(ctx, model, factory, cfg, spec.withDefaults(), scratch)
	}
	return nil, fmt.Errorf("montecarlo: unknown estimator method %q", spec.Method)
}

// proposal is the prepared importance-sampling proposal: the defensive
// mixture q = alpha·target + (1-alpha)/M · Σ kernels over raw draw space.
type proposal struct {
	target  MultiEncounterModel // prepared
	alpha   float64
	kernels [][]Distribution // [kernel][K*NumParams] per-dimension samplers
}

// dimBounds returns the effective per-dimension draw interval for dimension
// d of intruder model em: the model's clamp range intersected with the
// distribution's own support (a kernel drawing outside the target's support
// would only produce zero-weight episodes).
func dimBounds(em *EncounterModel, d int) (lo, hi float64) {
	rlo, rhi := em.Ranges.Bounds()
	slo, shi := supportBounds(em.all()[d])
	return math.Max(rlo[d], slo), math.Min(rhi[d], shi)
}

// newProposal builds the defensive-mixture proposal for the model from the
// spec's kernel centers.
//
// The per-dimension kernel sigma comes from the spread of the archive
// centers themselves: dimensions every danger genome agrees on (the miss
// distances, typically) get tight, danger-directed bumps, while dimensions
// the archive scatters across stay nearly as wide as the target — tilting
// them would concentrate the proposal on one corner of the failure region
// and raise variance instead of lowering it. Bandwidth·width floors the
// sigma so a lone genome still yields a usable bump, and the dimension
// width caps it.
//
// When the centers scatter beyond scatterGate of the dimension width the
// kernels stop tilting that dimension entirely and reuse the target's own
// distribution there: the archive carries no directional information about
// it, and an untilted dimension cancels exactly from the likelihood ratio
// instead of contributing weight noise.
func newProposal(model MultiEncounterModel, spec RareEventSpec) (*proposal, error) {
	if err := model.densitySupported(); err != nil {
		return nil, fmt.Errorf("montecarlo: model unsuitable for importance sampling: %w", err)
	}
	k := model.NumIntruders()
	dim := k * encounter.NumParams
	q := &proposal{target: model, alpha: spec.Defensive}
	if len(spec.Kernels) == 0 {
		// Pure target sampling: weights are identically 1.
		q.alpha = 1
		return q, nil
	}
	for ki, center := range spec.Kernels {
		if len(center) != dim {
			return nil, fmt.Errorf("montecarlo: kernel %d has %d genes, want %d (%d intruders × %d params)",
				ki, len(center), dim, k, encounter.NumParams)
		}
	}
	sigma := make([]float64, dim)
	tilt := make([]bool, dim)
	for d := range sigma {
		em := &model.Intruders[d/encounter.NumParams]
		lo, hi := dimBounds(em, d%encounter.NumParams)
		width := hi - lo
		if width <= 0 {
			continue
		}
		tilt[d] = true
		s := spec.Bandwidth * width
		if m := len(spec.Kernels); m >= 2 {
			mean := 0.0
			for _, c := range spec.Kernels {
				mean += c[d]
			}
			mean /= float64(m)
			varc := 0.0
			for _, c := range spec.Kernels {
				dev := c[d] - mean
				varc += dev * dev
			}
			spread := math.Sqrt(varc / float64(m))
			if spread > scatterGate*width {
				tilt[d] = false
				continue
			}
			if spread > s {
				s = spread
			}
		}
		sigma[d] = math.Min(s, width)
	}
	for _, center := range spec.Kernels {
		dims := make([]Distribution, dim)
		for d := range dims {
			em := &model.Intruders[d/encounter.NumParams]
			pd := d % encounter.NumParams
			tdist := em.all()[pd]
			lo, hi := dimBounds(em, pd)
			if _, atomic := atomPoint(tdist); atomic || hi <= lo || !tilt[d] || sigma[d] <= 0 {
				// Degenerate dimension: the kernel must share the target's
				// base measure, so it reuses the target's own distribution
				// and the dimension cancels out of the likelihood ratio.
				dims[d] = tdist
				continue
			}
			dims[d] = TruncNormal{
				Mean:  clampTo(center[d], lo, hi),
				Sigma: sigma[d],
				Min:   lo,
				Max:   hi,
			}
		}
		q.kernels = append(q.kernels, dims)
	}
	return q, nil
}

// sampleInto draws one episode from the proposal, writing the raw draws
// into raw (len K*NumParams) and the clamped, normalized encounter into
// dst. Allocation-free.
func (q *proposal) sampleInto(rng *rand.Rand, buf *[encounter.NumParams]float64, raw []float64, dst []encounter.Params) encounter.MultiParams {
	if len(q.kernels) > 0 && rng.Float64() >= q.alpha {
		m := rng.IntN(len(q.kernels))
		for d, dist := range q.kernels[m] {
			raw[d] = dist.Sample(rng)
		}
		return q.target.paramsFromRaw(raw, dst)
	}
	return q.target.sampleRawInto(rng, buf, raw, dst)
}

// logAddExp returns log(exp(a) + exp(b)) stably.
func logAddExp(a, b float64) float64 {
	if math.IsInf(b, -1) {
		return a
	}
	if math.IsInf(a, -1) {
		return b
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// logWeight returns log(p(raw)/q(raw)), the episode's log likelihood
// ratio. With a defensive weight α > 0 the result is at most -log(α),
// because q ≥ α·p pointwise.
func (q *proposal) logWeight(raw []float64) float64 {
	lp := q.target.rawLogProb(raw)
	if len(q.kernels) == 0 {
		return 0
	}
	if math.IsInf(lp, -1) {
		return math.Inf(-1)
	}
	logShare := math.Log((1 - q.alpha) / float64(len(q.kernels)))
	logQ := math.Log(q.alpha) + lp
	for _, kd := range q.kernels {
		lk := logShare
		for d, dist := range kd {
			lk += logProb(dist, raw[d])
			if math.IsInf(lk, -1) {
				break
			}
		}
		logQ = logAddExp(logQ, lk)
	}
	return lp - logQ
}

// estimateIS runs the importance-sampling estimator (plain or
// self-normalized).
func estimateIS(ctx context.Context, model MultiEncounterModel, factory SystemFactory, cfg Config, spec RareEventSpec, scratch *Scratch) (*Estimate, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("montecarlo: nil system factory")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	confidence := cfg.Confidence
	if confidence == 0 {
		confidence = 0.95
	}
	if scratch == nil {
		scratch = &Scratch{}
	}
	model = model.Prepared()
	q, err := newProposal(model, spec)
	if err != nil {
		return nil, err
	}
	outcomes := scratch.grow(cfg.Samples)
	worlds, err := prepareWorlds(scratch, &cfg, factory, model.NumIntruders(), cfg.Samples)
	if err != nil {
		return nil, err
	}
	runEpisodes(ctx, worlds, cfg.Samples, func(w *world, i int) {
		rng := w.rng.SeedChild(cfg.Seed, i)
		m := q.sampleInto(rng, &w.buf, w.raw, w.params)
		lw := q.logWeight(w.raw)
		res, err := w.runner.RunMulti(m, w.systems, stats.DeriveSeed(cfg.Seed^dynamicsSalt, i))
		if err != nil {
			outcomes[i] = outcome{err: err}
			return
		}
		outcomes[i] = outcome{
			nmac:    res.NMAC,
			alerted: res.Alerted(),
			alerts:  res.TotalAlerts(),
			minSep:  res.MinSeparation,
			logw:    lw,
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	n := float64(cfg.Samples)
	est := &Estimate{Samples: cfg.Samples}
	var sumW, sumW2, sumWZ, sumWAlert, sumWSep, sumWAlerts, sumWInvSep float64
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return nil, o.err
		}
		w := math.Exp(o.logw)
		d := o.minSep
		if o.nmac {
			est.NMACs++
			d = 0
		}
		sumW += w
		sumW2 += w * w
		if o.nmac {
			sumWZ += w
		}
		if o.alerted {
			sumWAlert += w
		}
		sumWSep += w * o.minSep
		sumWAlerts += w * float64(o.alerts)
		sumWInvSep += w / (1 + d)
	}

	selfNorm := spec.Method == MethodSNIS
	var pHat, se2 float64
	if selfNorm {
		if sumW > 0 {
			pHat = sumWZ / sumW
		}
		// Delta-method variance: Σ w²(z-p̂)² / (Σw)².
		var s float64
		for i := range outcomes {
			o := &outcomes[i]
			w := math.Exp(o.logw)
			z := 0.0
			if o.nmac {
				z = 1
			}
			u := w * (z - pHat)
			s += u * u
		}
		if sumW > 0 {
			se2 = s / (sumW * sumW)
		}
	} else {
		pHat = sumWZ / n
		// iid sample variance of the per-episode values w·z.
		var s float64
		for i := range outcomes {
			o := &outcomes[i]
			y := 0.0
			if o.nmac {
				y = math.Exp(o.logw)
			}
			dev := y - pHat
			s += dev * dev
		}
		if cfg.Samples > 1 {
			se2 = s / (n - 1) / n
		}
	}

	est.PNMAC = pHat
	est.PNMACCI = isInterval(pHat, se2, est.NMACs, cfg.Samples, q.alpha, confidence)
	// Secondary metrics are always self-normalized: they are means, not
	// tail probabilities, and the normalized form is well behaved for both
	// variants.
	if sumW > 0 {
		est.AlertRate = sumWAlert / sumW
		est.MeanMinSeparation = sumWSep / sumW
		est.MeanAlerts = sumWAlerts / sumW
		est.MeanInverseSeparation = sumWInvSep / sumW
	}
	if sumW2 > 0 {
		est.ESS = sumW * sumW / sumW2
	}
	est.VarianceReduction = varianceReduction(pHat, se2, n)
	return est, nil
}

// isInterval builds the confidence interval for an IS estimate. With
// observed successes it is the normal interval around pHat; with none, the
// bounded weights (w ≤ 1/α) turn the exact Clopper–Pearson bound on the
// proposal's event probability into a bound on the target's:
// P = E_q[w·z] ≤ (1/α)·q(NMAC) ≤ (1/α)·CP_hi(0, N).
func isInterval(pHat, se2 float64, nmacs, samples int, alpha, confidence float64) stats.Interval {
	if nmacs == 0 {
		hi := stats.ClopperPearsonCI(0, samples, confidence).Hi
		if alpha > 0 {
			hi /= alpha
		}
		return stats.Interval{Lo: 0, Hi: math.Min(1, hi)}
	}
	z := stats.ZForConfidence(confidence)
	half := z * math.Sqrt(se2)
	return stats.Interval{Lo: math.Max(0, pHat-half), Hi: math.Min(1, pHat+half)}
}

// varianceReduction compares an estimator variance against brute force at
// the same episode budget and point estimate.
func varianceReduction(pHat, variance, episodes float64) float64 {
	if variance <= 0 || pHat <= 0 || pHat >= 1 || episodes <= 0 {
		return 0
	}
	return pHat * (1 - pHat) / episodes / variance
}

// splitSalt decorrelates the splitting stage seeds from the plain episode
// stream.
const splitSalt = 0x51e7

// scatterGate is the kernel-center spread, as a fraction of the dimension
// width, beyond which the archive is considered directionless about a
// dimension and the proposal leaves it untilted (see newProposal).
const scatterGate = 0.25

// chainState is one splitting chain's current sample: a raw draw vector,
// its log density, and the outcome of the episode that produced it.
type chainState struct {
	score float64 // episode minimum 3-D separation, metres
	logp  float64
	nmac  bool
}

// estimateSplit runs fixed-level multi-level splitting (subset simulation).
func estimateSplit(ctx context.Context, model MultiEncounterModel, factory SystemFactory, cfg Config, spec RareEventSpec, scratch *Scratch) (*Estimate, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("montecarlo: nil system factory")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	confidence := cfg.Confidence
	if confidence == 0 {
		confidence = 0.95
	}
	if scratch == nil {
		scratch = &Scratch{}
	}
	model = model.Prepared()
	if err := model.densitySupported(); err != nil {
		return nil, fmt.Errorf("montecarlo: model unsuitable for splitting: %w", err)
	}
	n := spec.LevelSamples
	if n <= 0 {
		n = cfg.Samples
	}
	k := model.NumIntruders()
	dim := k * encounter.NumParams

	// Per-dimension random-walk sigmas, from the same effective bounds the
	// IS kernels use. Zero width marks a degenerate dimension the walk
	// must leave untouched.
	sigma := make([]float64, dim)
	for d := range sigma {
		em := &model.Intruders[d/encounter.NumParams]
		lo, hi := dimBounds(em, d%encounter.NumParams)
		if w := hi - lo; w > 0 {
			sigma[d] = spec.Step * w
		}
	}

	worlds, err := prepareWorlds(scratch, &cfg, factory, k, n)
	if err != nil {
		return nil, err
	}

	stages := len(spec.Levels) + 1 // level stages plus the final NMAC stage
	cur := make([]chainState, n)
	nxt := make([]chainState, n)
	curRaw := make([]float64, n*dim)
	nxtRaw := make([]float64, n*dim)
	errs := make([]error, n)
	var simCount atomic.Int64
	simCount.Store(int64(n))

	// Stage 0: iid target sampling, exactly the brute-force episode loop
	// but retaining each episode's raw draws. Its outcomes double as the
	// estimate's unconditional secondary metrics.
	outcomes := scratch.grow(n)
	stageSeed := stats.DeriveSeed(cfg.Seed^splitSalt, 0)
	runEpisodes(ctx, worlds, n, func(w *world, i int) {
		rng := w.rng.SeedChild(stageSeed, i)
		raw := curRaw[i*dim : (i+1)*dim]
		m := model.sampleRawInto(rng, &w.buf, raw, w.params)
		res, err := w.runner.RunMulti(m, w.systems, stats.DeriveSeed(stageSeed^dynamicsSalt, i))
		if err != nil {
			outcomes[i] = outcome{err: err}
			return
		}
		outcomes[i] = outcome{
			nmac:    res.NMAC,
			alerted: res.Alerted(),
			alerts:  res.TotalAlerts(),
			minSep:  res.MinSeparation,
		}
		cur[i] = chainState{score: res.MinSeparation, logp: model.rawLogProb(raw), nmac: res.NMAC}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	est := &Estimate{}
	var sep, alerts, invSep stats.Accumulator
	alerted := 0
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return nil, o.err
		}
		d := o.minSep
		if o.nmac {
			d = 0
		}
		if o.alerted {
			alerted++
		}
		sep.Add(o.minSep)
		alerts.Add(float64(o.alerts))
		invSep.Add(1 / (1 + d))
	}
	est.AlertRate = float64(alerted) / float64(n)
	est.MeanMinSeparation = sep.Mean()
	est.MeanAlerts = alerts.Mean()
	est.MeanInverseSeparation = invSep.Mean()

	pHat := 1.0
	relVar := 0.0
	extinct := false
	survivors := make([]int, 0, n)
	for stage := 0; stage < stages; stage++ {
		if stage > 0 {
			// Conditional stage: chains seeded round-robin from the previous
			// stage's survivors, advanced by Metropolis moves targeting the
			// model restricted to {score < condition}.
			condition := spec.Levels[stage-1]
			seeds := append([]int(nil), survivors...)
			stageSeed := stats.DeriveSeed(cfg.Seed^splitSalt, stage)
			runEpisodes(ctx, worlds, n, func(w *world, c int) {
				src := seeds[c%len(seeds)]
				st := cur[src]
				copy(w.chain, curRaw[src*dim:(src+1)*dim])
				rng := w.rng.SeedChild(stageSeed, c)
				sims := 0
				for mv := 0; mv < spec.Moves; mv++ {
					for d := 0; d < dim; d++ {
						if sigma[d] > 0 {
							w.raw[d] = w.chain[d] + sigma[d]*rng.NormFloat64()
						} else {
							w.raw[d] = w.chain[d]
						}
					}
					lpNew := model.rawLogProb(w.raw)
					if math.IsInf(lpNew, -1) {
						continue
					}
					if rng.Float64() >= math.Exp(lpNew-st.logp) {
						continue
					}
					dynSeed := rng.Uint64()
					m := model.paramsFromRaw(w.raw, w.params)
					res, err := w.runner.RunMulti(m, w.systems, dynSeed)
					sims++
					if err != nil {
						errs[c] = err
						return
					}
					if res.MinSeparation < condition {
						copy(w.chain, w.raw)
						st = chainState{score: res.MinSeparation, logp: lpNew, nmac: res.NMAC}
					}
				}
				nxt[c] = st
				copy(nxtRaw[c*dim:(c+1)*dim], w.chain)
				simCount.Add(int64(sims))
			})
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			cur, nxt = nxt, cur
			curRaw, nxtRaw = nxtRaw, curRaw
		}

		// Count the stage's successes: falling below the next level, or an
		// NMAC on the final stage.
		final := stage == stages-1
		survivors = survivors[:0]
		for i := 0; i < n; i++ {
			if final {
				if cur[i].nmac {
					survivors = append(survivors, i)
				}
			} else if cur[i].score < spec.Levels[stage] {
				survivors = append(survivors, i)
			}
		}
		sort.Ints(survivors)
		p := float64(len(survivors)) / float64(n)
		if final {
			est.NMACs = len(survivors)
		}
		if p == 0 {
			// Extinction: no sample reached the next subset. The point
			// estimate is 0; the upper bound is the completed stages' product
			// times Clopper–Pearson on the extinct stage's 0-of-n
			// observation, with the remaining conditionals bounded by 1.
			extinct = true
			hi := pHat * stats.ClopperPearsonCI(0, n, confidence).Hi
			est.PNMACCI = stats.Interval{Lo: 0, Hi: math.Min(1, hi)}
			pHat = 0
			break
		}
		pHat *= p
		relVar += (1 - p) / (float64(n) * p)
	}

	total := int(simCount.Load())
	est.Samples = total
	est.PNMAC = pHat
	if !extinct {
		// Lognormal interval from the independence-approximation relative
		// variance δ² = Σ (1-p_j)/(N·p_j): conservative for the product of
		// positively-correlated stage estimates is not guaranteed, but it is
		// the standard subset-simulation practice and is cross-validated
		// against brute force in the test suite.
		if relVar > 0 {
			z := stats.ZForConfidence(confidence)
			sigmaLog := math.Sqrt(math.Log1p(relVar))
			est.PNMACCI = stats.Interval{
				Lo: pHat * math.Exp(-z*sigmaLog),
				Hi: math.Min(1, pHat*math.Exp(z*sigmaLog)),
			}
		} else {
			est.PNMACCI = stats.Interval{Lo: pHat, Hi: pHat}
		}
		variance := pHat * pHat * relVar
		est.VarianceReduction = varianceReduction(pHat, variance, float64(total))
		if variance > 0 {
			est.ESS = pHat * (1 - pHat) / variance
		}
	}
	return est, nil
}
