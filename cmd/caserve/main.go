// Command caserve runs the validation service: a long-running, crash-safe
// HTTP server accepting campaign, adversarial-search and rare-event jobs.
// Campaign cells shard across a supervised worker pool with per-cell
// deadlines, bounded retries and quarantine of persistently failing
// cells; every completed cell is journaled durably, so killing the server
// — SIGKILL included — and restarting it on the same -state directory
// resumes mid-campaign with artifacts byte-identical to an uninterrupted
// run.
//
// Usage:
//
//	caserve [-addr :8080] [-state caserve-state] [-table table.acxt] [-full]
//	        [-workers 0] [-retries 3] [-cell-timeout 0] [-backoff 50ms]
//
// API:
//
//	POST /jobs                {"kind":"campaign|search|rare","params":"<ECJ text>"}
//	GET  /jobs                list jobs
//	GET  /jobs/{id}           job status
//	GET  /jobs/{id}/stream    live JSONL cell stream (follows until terminal)
//	GET  /jobs/{id}/result    terminal JSONL / result JSON
//	GET  /jobs/{id}/summary   terminal summary table
//	POST /jobs/{id}/cancel    cancel a queued or running job
//	GET  /healthz
//
// SIGINT/SIGTERM shut down gracefully: in-flight cells finish and are
// journaled, long-running jobs stop at their next checkpoint boundary,
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
	"acasxval/internal/cli"
	"acasxval/internal/serve"
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
		tablePath   = flag.String("table", "", "logic table path (built on the fly when a submitted job needs one)")
		full        = flag.Bool("full", false, "build the full-resolution table instead of the coarse one")
		withTable   = flag.Bool("with-table", false, "build/load the logic table at startup so table-backed systems are accepted")
		workers     = flag.Int("workers", 0, "concurrent campaign cells (0 = NumCPU)")
		retries     = flag.Int("retries", 0, "attempts per cell before quarantine (0 = default 3)")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-attempt cell deadline (0 = none)")
		backoff     = flag.Duration("backoff", 0, "base retry backoff, doubled per attempt with jitter (0 = default 50ms)")
	)
	flag.Parse()

	// Table-backed systems (acasx, belief) are only on the menu when the
	// table is built: a service should fail a submission loudly at submit
	// time, not stall its queue building a table mid-job.
	systems := campaign.DefaultSystems(nil)
	if *withTable || *tablePath != "" {
		table, err := cli.LoadOrBuildTable(*tablePath, !*full, 0)
		if err != nil {
			return err
		}
		systems = campaign.DefaultSystems(table)
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
