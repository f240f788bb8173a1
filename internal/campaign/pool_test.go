package campaign

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"

	"acasxval/internal/montecarlo"
)

// TestRunCellsRunsEachCellOnce: every index runs exactly once, and each
// worker hands the same scratch to all its cells.
func TestRunCellsRunsEachCellOnce(t *testing.T) {
	var mu sync.Mutex
	ran := make(map[int]int)
	scratches := make(map[*montecarlo.Scratch]bool)
	err := RunCells(context.Background(), 5, 1, func(i, episodeWorkers int, scratch *montecarlo.Scratch) error {
		mu.Lock()
		defer mu.Unlock()
		ran[i]++
		scratches[scratch] = true
		if episodeWorkers != 1 {
			t.Errorf("cell %d got %d episode workers, want 1 (5 cells fill a 1-worker pool)", i, episodeWorkers)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if ran[i] != 1 {
			t.Errorf("cell %d ran %d times, want 1", i, ran[i])
		}
	}
	if len(scratches) != 1 {
		t.Errorf("one worker used %d scratches, want 1", len(scratches))
	}
}

// TestRunCellsStopsFeedingAtFirstError: with one worker, a cell failing
// at index k is the last cell to start, and its error is returned.
func TestRunCellsStopsFeedingAtFirstError(t *testing.T) {
	const k = 3
	boom := errors.New("boom")
	var started []int
	err := RunCells(context.Background(), 10, 1, func(i, _ int, _ *montecarlo.Scratch) error {
		started = append(started, i)
		if i == k {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(started) != k+1 || started[len(started)-1] != k {
		t.Errorf("started %v, want 0..%d", started, k)
	}
}

// TestRunCellsStopsFeedingOnCancel: a context cancelled while a cell runs
// lets that cell finish, starts no further cell, and reports ctx.Err().
func TestRunCellsStopsFeedingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started []int
	err := RunCells(ctx, 10, 1, func(i, _ int, _ *montecarlo.Scratch) error {
		started = append(started, i)
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(started) != 1 {
		t.Errorf("started %v, want only cell 0", started)
	}
}

// TestRunCellsSpillsIntoSmallGrids: a 1-cell campaign on a many-core
// pool hands the cell every core as episode workers, and its JSONL is
// byte-identical to the serial run.
func TestRunCellsSpillsIntoSmallGrids(t *testing.T) {
	spec := testSpec()
	spec.Presets = []string{"headon"}
	spec.ModelDraws = 0
	spec.Systems = []string{"svo"}
	spec.Variants = nil
	var streams [2]bytes.Buffer
	for k, par := range []int{1, runtime.NumCPU()} {
		spec.Parallelism = par
		res, err := RunContext(context.Background(), spec, DefaultSystems(nil), &streams[k])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 1 {
			t.Fatalf("parallelism %d: %d cells, want 1", par, len(res.Cells))
		}
	}
	if !bytes.Equal(streams[0].Bytes(), streams[1].Bytes()) {
		t.Error("1-cell JSONL differs between parallelism 1 and NumCPU")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("the spill needs at least 2 CPUs")
	}
	err := RunCells(context.Background(), 1, runtime.NumCPU(), func(_, episodeWorkers int, _ *montecarlo.Scratch) error {
		if episodeWorkers < 2 {
			t.Errorf("lone cell got %d episode workers on %d CPUs, want > 1", episodeWorkers, runtime.NumCPU())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// cancelOnWrite forwards to w and cancels the run's context after the
// first write, which RunContext makes once cell 0 has completed.
type cancelOnWrite struct {
	w      io.Writer
	cancel context.CancelFunc
}

func (c cancelOnWrite) Write(p []byte) (int, error) {
	defer c.cancel()
	return c.w.Write(p)
}

// TestRunContextCancelReturnsPrefix pins RunContext's cancellation
// contract: cancelled after the first cell completes, it returns a
// non-nil partial result with context.Canceled, whose cells lead the
// uncancelled run and whose JSONL is a byte prefix of its stream.
func TestRunContextCancelReturnsPrefix(t *testing.T) {
	systems := DefaultSystems(nil)
	// One worker, so the cancel lands before any later cell is claimed;
	// on a pool as wide as the grid every cell would already be running.
	spec := testSpec()
	spec.Parallelism = 1
	var full bytes.Buffer
	want, err := RunContext(context.Background(), spec, systems, &full)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial bytes.Buffer
	got, err := RunContext(ctx, spec, systems, cancelOnWrite{&partial, cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got == nil {
		t.Fatal("cancelled run returned a nil result, want the completed prefix")
	}
	if n := len(got.Cells); n < 1 || n >= len(want.Cells) {
		t.Fatalf("cancelled run kept %d of %d cells, want a proper non-empty prefix", n, len(want.Cells))
	}
	for i, c := range got.Cells {
		if c.Index != want.Cells[i].Index || c.PNMAC != want.Cells[i].PNMAC || c.MeanMinSep != want.Cells[i].MeanMinSep {
			t.Errorf("cell %d = %+v, want %+v", i, c, want.Cells[i])
		}
	}
	if !bytes.HasPrefix(full.Bytes(), partial.Bytes()) {
		t.Error("cancelled JSONL is not a byte prefix of the uncancelled stream")
	}
	if lines := bytes.Count(partial.Bytes(), []byte("\n")); lines != len(got.Cells) {
		t.Errorf("cancelled JSONL has %d lines for %d cells", lines, len(got.Cells))
	}
}
