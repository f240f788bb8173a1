// Command caserve runs the validation service: a long-running, crash-safe
// HTTP server accepting campaign (rare-event estimator cells included) and
// adversarial-search jobs.
// Jobs start in submission order and share one pool of -workers slots
// (clamped to NumCPU): the next job's cells run while the previous job
// journals and writes its artifacts, and a job whose every cell is
// cached settles without queueing. Each cell runs under the shard
// supervisor's per-cell deadlines, bounded retries and quarantine of
// persistently failing cells; every completed cell is journaled
// durably, so killing the server — SIGKILL included — and restarting it
// on the same -state directory resumes mid-campaign with artifacts
// byte-identical to an uninterrupted run.
//
// The server builds the full-resolution logic table, the paper's system,
// once at start-up, so every registered backend is on its menu and a
// submission naming an unknown system is refused at submit time, never
// mid-job.
//
// Usage:
//
//	caserve [-addr :8080] [-state caserve-state]
//	        [-workers 0] [-retries 3] [-cell-timeout 0] [-backoff 50ms]
//
// API:
//
//	POST /jobs                {"kind":"campaign|search","params":"<ECJ text>"}
//	GET  /jobs                list jobs
//	GET  /jobs/{id}           job status
//	GET  /jobs/{id}/stream    live JSONL cell stream (follows until terminal)
//	GET  /jobs/{id}/result    terminal JSONL / result JSON
//	GET  /jobs/{id}/summary   terminal summary table
//	POST /jobs/{id}/cancel    cancel a queued or running job
//	GET  /healthz
//
// A job writes under the artifact base <state>/<job-id> the files its
// command writes under -out BASE: sweep for a campaign, casearch for a
// search (a search's episodes run on -workers). The retired rare job kind
// is refused; a campaign with campaign.estimator.methods replaces it.
//
// SIGINT/SIGTERM shut down gracefully: no new cell starts, in-flight
// cells finish and are journaled, long-running jobs stop at their next checkpoint boundary,
// and unfinished jobs resume on the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/serve"
	"acasxval/internal/sys"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "caserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		stateDir    = flag.String("state", "caserve-state", "state directory: journal and per-job artifacts")
		workers     = flag.Int("workers", 0, "concurrent campaign cells over all jobs (clamped to NumCPU); a search job takes them all as its episode workers (0 = NumCPU)")
		retries     = flag.Int("retries", 0, "attempts per cell before quarantine (0 = default 3)")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-attempt cell deadline (0 = none)")
		backoff     = flag.Duration("backoff", 0, "base retry backoff, doubled per attempt with jitter (0 = default 50ms)")
	)
	flag.Parse()

	systems, err := campaign.LoadSystems(sys.Names())
	if err != nil {
		return err
	}

	srv, err := serve.NewServer(serve.Config{
		StateDir: *stateDir,
		Systems:  systems,
		Workers:  *workers,
		Policy: serve.RetryPolicy{
			MaxAttempts: *retries,
			Timeout:     *cellTimeout,
			BackoffBase: *backoff,
		},
	})
	if err != nil {
		return err
	}

	// Clients submit small JSON bodies and poll; a client that stalls in
	// its headers or parks an idle keep-alive connection must not hold a
	// connection open forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "caserve: serving on %s, state in %s (%d jobs replayed)\n",
		*addr, *stateDir, len(srv.Jobs()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting HTTP, let in-flight cells finish and
	// journal, leave unfinished jobs resumable.
	fmt.Fprintln(os.Stderr, "caserve: shutting down (in-flight cells will finish and journal)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
		return err
	}
	return srv.Close()
}
