// Command acasxgen runs the offline model-based optimization: it builds the
// ACAS XU-style logic table by backward-induction value iteration over the
// encounter MDP and writes it to disk (the "Optimization -> Logic Table"
// step of the paper's Fig. 1).
//
// Usage:
//
//	acasxgen -out table.acxt [-coarse] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"acasxval/internal/acasx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acasxgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out     = flag.String("out", "table.acxt", "output path for the generated logic table")
		coarse  = flag.Bool("coarse", false, "build the reduced-resolution table")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel solver workers")
	)
	flag.Parse()

	cfg := acasx.DefaultConfig()
	if *coarse {
		cfg = acasx.CoarseConfig()
	}
	cfg.Workers = *workers

	fmt.Printf("building logic table: h grid %d, rate grid %d, horizon %d s, %d workers\n",
		cfg.Grid.NumH, cfg.Grid.NumRate, cfg.Grid.Horizon, cfg.Workers)
	table, err := acasx.BuildTable(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("solved in %v: %d Q-value entries across %d tau slices\n",
		table.BuildTime(), table.NumEntries(), table.Horizon()+1)
	fmt.Printf("(paper footnote 2: the real ACAS XU value iteration takes < 5 minutes on a laptop)\n")

	fmt.Println()
	fmt.Print(table.RenderPolicySlice(0, 0, 21))

	if err := table.Save(*out); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.1f MiB)\n", *out, float64(info.Size())/(1<<20))
	return nil
}
