package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"acasxval/internal/encounter"
	"acasxval/internal/ga"
	"acasxval/internal/stats"
)

// Found is one discovered encounter with its evaluation.
type Found struct {
	Params  encounter.Params
	Fitness float64
	// Geometry classifies the encounter (head-on / tail approach /
	// crossing), the analysis step of section VII.
	Geometry encounter.Geometry
	// Generation and Index locate the discovery in the search.
	Generation int
	Index      int
}

// TopEncounters decodes and ranks the k highest-fitness evaluations of a
// search log. A genome longer than one pairwise block (a K-intruder or
// fault-co-evolving search) is reported by its first block: the ownship
// against its first intruder.
func TopEncounters(ranges encounter.Ranges, evals []ga.Evaluation, k int) []Found {
	if k <= 0 || len(evals) == 0 {
		return nil
	}
	sorted := append([]ga.Evaluation(nil), evals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Fitness > sorted[j].Fitness })
	if k > len(sorted) {
		k = len(sorted)
	}
	out := make([]Found, 0, k)
	for _, e := range sorted[:k] {
		if len(e.Genome) < encounter.NumParams {
			continue
		}
		p, err := encounter.FromVector(e.Genome[:encounter.NumParams])
		if err != nil {
			continue
		}
		p = ranges.Clamp(p)
		out = append(out, Found{
			Params:     p,
			Fitness:    e.Fitness,
			Geometry:   encounter.Classify(p),
			Generation: e.Generation,
			Index:      e.Index,
		})
	}
	return out
}

// CategoryTally counts discovered encounters by geometry class — the
// analysis that revealed "most of them are tail approach situations"
// (section VII).
type CategoryTally struct {
	HeadOn       int
	TailApproach int
	Crossing     int
	// VerticallyOpposed counts encounters where one aircraft climbs while
	// the other descends, across all classes.
	VerticallyOpposed int
	Total             int
}

// Tally classifies a set of found encounters.
func Tally(found []Found) CategoryTally {
	var t CategoryTally
	for _, f := range found {
		t.Total++
		switch f.Geometry.Category {
		case encounter.HeadOn:
			t.HeadOn++
		case encounter.TailApproach:
			t.TailApproach++
		default:
			t.Crossing++
		}
		if f.Geometry.VerticallyOpposed {
			t.VerticallyOpposed++
		}
	}
	return t
}

// Dominant returns the most common category of the tally.
func (t CategoryTally) Dominant() encounter.Category {
	switch {
	case t.TailApproach >= t.HeadOn && t.TailApproach >= t.Crossing:
		return encounter.TailApproach
	case t.HeadOn >= t.Crossing:
		return encounter.HeadOn
	default:
		return encounter.Crossing
	}
}

// String implements fmt.Stringer.
func (t CategoryTally) String() string {
	return fmt.Sprintf("head-on %d, tail-approach %d, crossing %d (vertically opposed %d) of %d",
		t.HeadOn, t.TailApproach, t.Crossing, t.VerticallyOpposed, t.Total)
}

// Cluster is one group of similar encounters found by k-means over
// normalized genomes. The paper's conclusions suggest clustering as the
// extension from point findings to areas of the search space: "Data mining
// techniques, such as clustering, could potentially be used to analyze the
// logged data to find such areas."
type Cluster struct {
	// Center is the cluster centroid decoded back to encounter parameters.
	Center encounter.Params
	// Members are the indices into the clustered input.
	Members []int
	// MeanFitness averages the members' fitness.
	MeanFitness float64
}

// ClusterEvaluations groups high-fitness evaluations into k clusters with
// k-means over range-normalized genomes (Lloyd's algorithm, deterministic
// under the seed). Evaluations below minFitness are ignored; longer genomes
// cluster on their first pairwise block, as in TopEncounters.
func ClusterEvaluations(ranges encounter.Ranges, evals []ga.Evaluation, k int, minFitness float64, seed uint64) ([]Cluster, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k %d < 1", k)
	}
	lo, hi := ranges.Bounds()
	normalize := func(g []float64) []float64 {
		n := make([]float64, len(lo))
		for i := range n {
			w := hi[i] - lo[i]
			if w <= 0 {
				continue
			}
			n[i] = (g[i] - lo[i]) / w
		}
		return n
	}
	var points [][]float64
	var fitness []float64
	for _, e := range evals {
		if e.Fitness < minFitness || len(e.Genome) < len(lo) {
			continue
		}
		points = append(points, normalize(e.Genome))
		fitness = append(fitness, e.Fitness)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("core: no evaluations above fitness %v", minFitness)
	}
	if k > len(points) {
		k = len(points)
	}

	// k-means++ style seeding: first random, then farthest-point.
	rng := stats.NewRNG(seed)
	centers := make([][]float64, 0, k)
	centers = append(centers, append([]float64(nil), points[rng.IntN(len(points))]...))
	for len(centers) < k {
		bestIdx, bestDist := 0, -1.0
		for i, p := range points {
			d := math.Inf(1)
			for _, c := range centers {
				if dd := sqDist(p, c); dd < d {
					d = dd
				}
			}
			if d > bestDist {
				bestDist = d
				bestIdx = i
			}
		}
		centers = append(centers, append([]float64(nil), points[bestIdx]...))
	}

	assign := make([]int, len(points))
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := sqDist(p, centers[c]); d < bestD {
					bestD = d
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		for c := range centers {
			count := 0
			sum := make([]float64, len(lo))
			for i, p := range points {
				if assign[i] != c {
					continue
				}
				count++
				for d := range p {
					sum[d] += p[d]
				}
			}
			if count == 0 {
				continue // keep the old center for empty clusters
			}
			for d := range sum {
				sum[d] /= float64(count)
			}
			centers[c] = sum
		}
	}

	clusters := make([]Cluster, 0, k)
	for c := range centers {
		var members []int
		var facc stats.Accumulator
		for i := range points {
			if assign[i] == c {
				members = append(members, i)
				facc.Add(fitness[i])
			}
		}
		if len(members) == 0 {
			continue
		}
		denorm := make([]float64, len(lo))
		for d := range denorm {
			denorm[d] = lo[d] + centers[c][d]*(hi[d]-lo[d])
		}
		p, err := encounter.FromVector(denorm)
		if err != nil {
			return nil, err
		}
		clusters = append(clusters, Cluster{
			Center:      p,
			Members:     members,
			MeanFitness: facc.Mean(),
		})
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].MeanFitness > clusters[j].MeanFitness })
	return clusters, nil
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ReportTop renders a readable table of discovered encounters.
func ReportTop(found []Found) string {
	var sb strings.Builder
	sb.WriteString("rank fitness   class          vert-opposed  encounter\n")
	for i, f := range found {
		fmt.Fprintf(&sb, "%4d %9.1f %-14s %-13v %s\n",
			i+1, f.Fitness, f.Geometry.Category, f.Geometry.VerticallyOpposed, f.Params)
	}
	return sb.String()
}
