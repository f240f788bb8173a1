// Package serve turns the validation engine into a long-running,
// crash-safe service: validation-as-a-service for the campaign sweep
// (its rare-event estimator axis included) and the adversarial search
// engine. A server accepts jobs over HTTP, runs their campaign cells on
// one server-wide slot pool under a shard supervisor, and journals
// durably enough that the recovery story is one sentence: restart the
// server on the same state directory.
//
// # Why a service can be crash-safe at all
//
// Everything here leans on the engine's counter-seeded determinism: a
// campaign cell is a pure function of its spec's shared knobs (name,
// sample count, run configuration, seed) and its own axis point
// (scenario, system, variant, fault, estimator). Re-running a cell after
// a crash, a timeout, a panic or an injected fault reproduces the
// original record exactly — campaign.CellResult round-trips JSON
// byte-for-byte, so a journaled cell re-marshals to the bytes the
// uninterrupted run would have streamed. Fault tolerance therefore never
// has to reconcile divergent results; it only has to remember which
// cells finished.
//
// # The journal
//
// The state directory holds one append-only JSONL journal (JournalFile)
// plus per-job artifacts. Four record types flow through it: "job" (a
// submitted spec, written before Submit acknowledges — an acknowledged
// job survives a crash), "status" (queued/running/terminal transitions),
// "cell" (a completed campaign cell and its result), and "poison" (a
// quarantined cell). Every append fsyncs before returning
// (durable.AppendWriter), and the server observes a strict
// journal-before-publish order: a cell is on disk before any client can
// see it complete. The one record a SIGKILL can corrupt is the line
// being appended at the moment of death; replay (durable.ScanJSONL)
// drops exactly that half-written tail, which is sound because whatever
// it logged was by construction never observable. Corruption anywhere
// else in the journal is real damage and fails replay loudly.
//
// On startup, NewServer replays the journal: completed cells become the
// completed-cell cache, poisoned cells become the quarantine, terminal
// jobs are rehydrated for the status and stream endpoints, and every
// non-terminal job — including those the dead process had marked
// "running" — re-enters the queue. When such a job re-executes, its
// cached cells are skipped (reported as cache hits) and only the missing
// ones run: the restart IS the resume, and the final artifacts are
// byte-identical to a never-interrupted run (see
// TestKillResumeByteIdentity).
//
// The cache key is (CellHash, cell seed), not (spec hash, index): the
// identity hash covers exactly the inputs that enter the cell's
// computation and drops the axis lists around it, so an overlapping
// sweep — the same campaign grown by one system or preset — hits the
// cache for every shared cell even though the spec hash and the cell
// indices differ.
//
// # The slot pool and the shard supervisor
//
// Config.Workers slots (clamped to NumCPU, as sweep's
// campaign.parallelism is) are shared by every job, and each slot owns
// one scratch that its cells reuse across jobs. A campaign cell holds a
// slot for its Supervisor.Do and runs on one episode worker; a job's
// poison records, terminal status and artifacts hold none. Jobs start in
// submission order: the run loop starts the oldest queued job once the
// job before it has started its last cell and a slot is free. So cells
// start in submission order, and job N+1's cells run while job N waits
// on its last cells, journals and writes its artifacts. A job whose
// every cell is cached or quarantined needs no slot and settles at
// submission, ahead of the queue. A search job holds every slot while
// it runs, since its episode workers take the cores. The pool only
// schedules. Each cell, and each search job as a
// single shard, goes through Supervisor.Do: per-attempt deadlines
// (RetryPolicy.Timeout), bounded retries with exponential backoff and
// deterministic per-shard jitter (no retry lockstep, yet reproducible
// schedules), and panic containment: a crashed attempt becomes a
// retriable shard failure, not a dead server. The episode workers of
// montecarlo and the islands of a search recover a panic on their own
// goroutines and re-raise it on the attempt's, so containment holds at
// any worker count. A shard that exhausts its retry budget is poisoned —
// quarantined durably, reported exactly once, never retried forever —
// and the job degrades gracefully: the remaining cells complete, the
// summary ranks what did run, and resubmitting the same spec skips the
// quarantined cell instead of looping. Timed-out attempts are cancelled AND awaited
// before the retry starts, so an attempt's scratch buffers are never
// shared between two live attempts.
//
// # Cancellation and shutdown
//
// context.Context plumbs from job cancel (POST /jobs/{id}/cancel),
// client disconnect, and graceful shutdown down through campaign cells
// and into the Monte-Carlo episode loop. Close starts no new job and
// no new cell (the check runs before each cell), lets in-flight cells
// finish and journal, interrupts a search job at its next evaluation
// boundary (the search engine's per-generation checkpoint makes that
// loss-free), and leaves unfinished jobs non-terminal so the next server
// resumes them: a job still waiting for a slot stays queued. A
// cancelled job is failed; a drained one is not.
package serve
