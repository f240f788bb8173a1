package search

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"acasxval/internal/campaign"
	"acasxval/internal/durable"
	"acasxval/internal/encounter"
	"acasxval/internal/stats"
)

// SweepSeeds extracts seed genomes from a campaign sweep's JSONL output:
// the cells are ranked worst-first (highest P(NMAC), then lowest mean
// minimum separation, then cell index) and their encounter parameter
// vectors returned, deduplicated exactly. limit caps the number of seeds
// (<= 0 means all). Cells written by pre-params sweeps (no "params" field)
// are skipped; a stream with no usable cells is an error. Multi-intruder
// cells yield K-block genomes (length K*encounter.NumParams); a K-intruder
// search tiles plain pairwise seeds up and Spec.Validate rejects genuine
// length mismatches.
//
// This closes the campaign -> search loop: a sweep's worst scenarios become
// the adversarial search's starting population instead of random genomes.
// truncated reports a skipped half-written trailing line, as LoadArchive
// does.
func SweepSeeds(r io.Reader, limit int) (seeds [][]float64, truncated bool, err error) {
	var cells []campaign.CellResult
	truncated, err = durable.ScanJSONL(r, func(line int, data []byte) error {
		var c campaign.CellResult
		if err := json.Unmarshal(data, &c); err != nil {
			return fmt.Errorf("search: sweep line %d: %w", line, err)
		}
		if len(c.Params) == 0 || len(c.Params)%encounter.NumParams != 0 || !stats.AllFinite(c.Params...) {
			return nil
		}
		cells = append(cells, c)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	if len(cells) == 0 {
		return nil, false, fmt.Errorf("search: sweep stream has no cells with encounter parameters")
	}
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.PNMAC != b.PNMAC {
			return a.PNMAC > b.PNMAC
		}
		if a.MeanMinSep != b.MeanMinSep {
			return a.MeanMinSep < b.MeanMinSep
		}
		return a.Index < b.Index
	})
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		// Genomes vary in length across K, so the exact-dedup key is the
		// rendered vector (%v emits the shortest decimal that round-trips
		// each float64, so distinct vectors render distinctly).
		key := fmt.Sprintf("%v", c.Params)
		if seen[key] {
			continue
		}
		seen[key] = true
		seeds = append(seeds, append([]float64(nil), c.Params...))
		if limit > 0 && len(seeds) >= limit {
			break
		}
	}
	return seeds, truncated, nil
}

// SweepSeedsFile reads SweepSeeds from a JSONL file on disk.
func SweepSeedsFile(path string, limit int) ([][]float64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("search: %w", err)
	}
	defer f.Close()
	return SweepSeeds(f, limit)
}
