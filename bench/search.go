package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"acasxval"
	"acasxval/internal/encounter"
	"acasxval/internal/montecarlo"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

// searchWorkload is one island-model adversarial search over two-intruder
// encounters under the moderate fault preset, repeated at the same seed.
type searchWorkload struct {
	e       *env
	factory acasxval.SystemFactory
	spec    acasxval.SearchSpec
	want    digest

	// Untraced totals for search.eval_share, and the traced generation
	// durations for search.generation_ms.
	evals int
	wall  time.Duration
	genMS []float64
}

func (w *searchWorkload) setup(e *env) error {
	w.e = e
	f, err := acasxval.NewSystemFactory(acasxval.SystemContext{Table: e.table}, acasxval.SystemSpec{Name: "acasx"})
	if err != nil {
		return err
	}
	faults, err := acasxval.FaultPreset("moderate")
	if err != nil {
		return err
	}
	spec := acasxval.DefaultSearchSpec()
	spec.Islands = e.size.searchIslands
	spec.GA.PopulationSize = e.size.searchPop
	spec.GA.Generations = e.size.searchGens
	spec.Fitness.SimsPerEncounter = e.size.searchSims
	spec.Fitness.Run.Faults = faults
	spec.Intruders = 2
	spec.Seed = e.seed
	w.factory, w.spec = f, spec
	return nil
}

// search runs one search; a traced one records a span per generation,
// ending each at the barrier the observer reports.
func (w *searchWorkload) search(ctx context.Context, factory acasxval.SystemFactory, job active) (digest, int, error) {
	var opts acasxval.SearchOptions
	if job.rec != nil {
		gen := job.child("generation")
		opts.Observer = func(s acasxval.IslandStats) {
			if s.Island != 0 {
				return
			}
			gen.end()
			w.genMS = append(w.genMS, float64(time.Since(gen.start))/1e6)
			gen = job.child("generation")
		}
	}
	w.e.check.op()
	res, err := acasxval.RunSearchContext(ctx, w.spec, factory, opts)
	if err != nil {
		w.e.check.fail("search: %v", err)
		return digest{}, 0, err
	}
	var archive bytes.Buffer
	if err := res.Archive.WriteJSONL(&archive); err != nil {
		return digest{}, 0, err
	}
	sum := sha256.Sum256(archive.Bytes())
	return digest{
		BestFitness:   res.Best.Fitness,
		Evaluations:   res.NumEvaluations,
		ArchiveLen:    res.Archive.Len(),
		ArchiveSHA256: hex.EncodeToString(sum[:]),
	}, res.NumEvaluations, nil
}

func (w *searchWorkload) warmup(ctx context.Context) (digest, error) {
	d, _, err := w.search(ctx, w.factory, active{})
	w.want = d
	return d, err
}

func (w *searchWorkload) measure(ctx context.Context, budget time.Duration, traced bool) (measurement, error) {
	factory := w.factory
	if traced {
		factory = w.e.traced.wrap(w.factory)
	}
	n := 0
	m, err := w.e.repeat(budget, func() (float64, float64, error) {
		n++
		job := w.e.root("job", traced)
		d, evals, err := w.search(ctx, factory, job)
		job.end()
		if err != nil {
			return 0, 0, err
		}
		w.e.check.same(fmt.Sprintf("search %d", n), d, w.want)
		return float64(evals * w.spec.Fitness.SimsPerEncounter), float64(evals), nil
	})
	if !traced {
		w.evals, w.wall = 0, 0
		for _, win := range m.windows {
			w.evals += int(win.units)
			w.wall += time.Duration(win.seconds * 1e9)
		}
	}
	return m, err
}

// source draws the generation-0 population: uniform two-intruder
// encounters over the search ranges, each evaluated through a one-point
// model as the engine does.
func (w *searchWorkload) source() episodeSource {
	draw := func(i int) encounter.MultiParams {
		return w.spec.Ranges.SampleMulti(stats.NewChildRNG(w.e.seed, i), w.spec.NumIntruders())
	}
	return episodeSource{
		run:         w.spec.Fitness.Run,
		factories:   []func() (sim.System, sim.System){w.factory},
		equipped:    []bool{true},
		model:       montecarlo.MultiPointModel(draw(0)).Prepared(),
		parallelism: 1,
		scratch:     true,
		draw:        func(i int) (encounter.MultiParams, int) { return draw(i), 0 },
		seed:        w.e.seed,
	}
}

// layers adds the search engine's own rungs: generation time, archive
// size, and the share of island time spent evaluating encounters,
// computed as evaluations x replayed evaluation cost over wall x islands.
func (w *searchWorkload) layers(ctx context.Context, out map[string]stat) error {
	if len(w.genMS) > 0 {
		out["search.generation_ms"] = summarize(w.genMS)
	}
	out["search.archive_len"] = single(float64(w.want.ArchiveLen))
	src := w.source()
	var scratch montecarlo.Scratch
	var per []float64
	for i := 0; i < 16; i++ {
		cfg := montecarlo.Config{Samples: w.spec.Fitness.SimsPerEncounter, Run: w.spec.Fitness.Run, Seed: stats.DeriveSeed(w.e.seed, i), Parallelism: 1}
		m, _ := src.draw(i)
		model := montecarlo.MultiPointModel(m)
		t0 := time.Now()
		if _, err := montecarlo.EvaluateMultiWithScratchContext(ctx, model, montecarlo.SystemFactory(w.factory), cfg, &scratch); err != nil {
			return err
		}
		per = append(per, time.Since(t0).Seconds())
	}
	if w.wall > 0 {
		share := float64(w.evals) * mean(per) / (w.wall.Seconds() * float64(w.spec.Islands))
		s := single(share)
		s.Computed = true
		out["search.eval_share"] = s
	}
	return nil
}

func (w *searchWorkload) close() error { return nil }
