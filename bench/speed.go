package main

import (
	"math"
	"time"
)

// The reference machine is a shared VM whose speed drifts: a fixed
// arithmetic loop ran 19 % slower an hour into a session than at its
// start, and per-run throughput of one commit moved by up to a third
// between runs tens of minutes apart. Drift at that scale moves every run
// of a run set alike, so no number of repetitions inside a run removes it.
// Each run therefore times calibrate, a fixed single-threaded kernel that
// the program under test cannot change, between its phases, and reports
// its end-to-end timings at the reference speed: a throughput is scaled
// by the run's median calibration time over referenceCalibrationMS, a
// duration by the inverse. On ten-run sets this halved the spread of
// episodes_per_s. The result file keeps the timings as measured too.

const (
	calibrationIters = 2_000_000
	// referenceCalibrationMS is calibrate's median on the reference
	// machine (2 vCPU Intel Xeon VM) when it was idle.
	referenceCalibrationMS = 15.0
)

// calibrate runs the kernel once and returns its time in milliseconds.
func calibrate() float64 {
	t0 := time.Now()
	s := 0.0
	for i := 0; i < calibrationIters; i++ {
		s += math.Sin(float64(i) * 1e-3)
	}
	sink += s
	return float64(time.Since(t0)) / 1e6
}

// speed collects a run's calibration times.
type speed struct{ ms []float64 }

func (s *speed) sample(n int) {
	for i := 0; i < n; i++ {
		s.ms = append(s.ms, calibrate())
	}
}

// factor is how much slower than the reference machine this run's
// machine was (above 1: slower).
func (s *speed) factor() float64 { return median(s.ms) / referenceCalibrationMS }

// timed reports whether a metric is a time or a rate, which machine speed
// scales.
func (d metricDef) timed() bool { return d.unit == "s" || d.unit == "ms" || d.unit == "1/s" }

// atReference rescales a timed metric to the reference speed.
func atReference(s stat, d metricDef, factor float64) stat {
	f := factor
	if d.better == "lower" {
		f = 1 / factor
	}
	s.Value, s.Q1, s.Q3 = s.Value*f, s.Q1*f, s.Q3*f
	return s
}

// calibration records a run's machine speed in its result.
type calibration struct {
	MedianMS    float64 `json:"median_ms"`
	ReferenceMS float64 `json:"reference_ms"`
	Samples     int     `json:"samples"`
}
