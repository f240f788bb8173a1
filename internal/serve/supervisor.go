package serve

import (
	"context"
	"fmt"
	"time"

	"acasxval/internal/stats"
)

// Clock abstracts time for the supervisor so retry/backoff/timeout state
// machines are testable against a fake clock — no sleeping tests, no
// flaky deadlines.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// realClock is the production clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RetryPolicy bounds how hard the supervisor tries before quarantining a
// shard. The zero value means the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts is the per-shard attempt budget (default 3). A shard
	// still failing after MaxAttempts is poisoned: reported once and
	// withdrawn from scheduling, never retried forever.
	MaxAttempts int
	// Timeout is the per-attempt deadline (0 = none). A timed-out
	// attempt's context is cancelled and the attempt is awaited — never
	// abandoned, so a successor attempt cannot race it on shared scratch.
	Timeout time.Duration
	// BackoffBase is the first retry delay (default 50ms); each further
	// retry doubles it up to BackoffMax (default 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 50 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 5 * time.Second
	}
	return p
}

// Backoff returns the delay before retrying shard after its attempt-th
// failed attempt (attempt counts from 1): exponential in the attempt
// number, capped at BackoffMax, plus a deterministic per-(seed, shard,
// attempt) jitter in [0, d) so a burst of same-cause failures does not
// retry in lockstep. Determinism keeps supervisor runs replayable.
func (p RetryPolicy) Backoff(seed uint64, shard, attempt int) time.Duration {
	p = p.withDefaults()
	d := p.BackoffBase
	for i := 1; i < attempt && d < p.BackoffMax; i++ {
		d *= 2
	}
	if d > p.BackoffMax {
		d = p.BackoffMax
	}
	jitter := stats.DeriveSeed(stats.DeriveSeed(seed, shard), attempt)
	return d + time.Duration(jitter%uint64(d))
}

// ShardReport is the supervisor's account of one shard: how many attempts
// it took, whether it was quarantined, and the last error when it was.
type ShardReport struct {
	Attempts int
	// Poisoned marks a shard that exhausted its retry budget. Do reports
	// it once; the caller journals it without deduplicating.
	Poisoned bool
	Err      string
}

// Supervisor runs one shard at a time through its retry state machine:
// per-attempt timeouts, bounded retries with backoff, panic containment
// and failure quarantine. It is the failure-domain layer between the
// server and the deterministic engine: everything below it is a pure
// function of (spec, shard, seed); everything above it only sees
// completed or poisoned shards. Scheduling is not its job: campaign cells
// and search jobs reach it on the server's slot pool.
type Supervisor struct {
	Policy RetryPolicy
	// Clock defaults to the real clock; tests inject a fake.
	Clock Clock
	// Seed feeds the deterministic backoff jitter.
	Seed uint64
	// Disrupt, when non-nil, is consulted at the top of every attempt and
	// its non-nil error (or panic) becomes the attempt's outcome — the
	// fault-injection hook the retry tests drive. The production server
	// leaves it nil.
	Disrupt func(shard, attempt int) error
}

// Do drives one shard's attempt/retry/quarantine state machine via run,
// which must be safe to call again after a failed attempt (the engine's
// counter-seeded cells are — a retried cell reproduces the original bytes
// exactly). A poisoned shard is reported, not returned as an error,
// because partial results are the point of graceful degradation. When ctx
// ends, Do stops without poisoning: the report carries the interrupted
// attempt's error so a resumed run retries the shard.
func (s *Supervisor) Do(ctx context.Context, shard int, run func(ctx context.Context, attempt int) error) ShardReport {
	policy := s.Policy.withDefaults()
	clock := s.Clock
	if clock == nil {
		clock = realClock{}
	}
	for attempt := 1; ; attempt++ {
		err := s.attempt(ctx, clock, policy, shard, attempt, run)
		if err == nil {
			return ShardReport{Attempts: attempt}
		}
		rep := ShardReport{Attempts: attempt, Err: err.Error()}
		if ctx.Err() != nil || attempt >= policy.MaxAttempts {
			rep.Poisoned = ctx.Err() == nil
			return rep
		}
		select {
		case <-ctx.Done():
			return rep
		case <-clock.After(policy.Backoff(s.Seed, shard, attempt)):
		}
	}
}

// attempt runs one try of a shard: panic contained, deadline enforced.
// On timeout the attempt's context is cancelled and the goroutine is
// awaited before returning — a successor attempt may reuse per-worker
// scratch, so an abandoned attempt must never still be running. An
// attempt that completes successfully right at the deadline is accepted:
// its result is as deterministic as any other.
func (s *Supervisor) attempt(ctx context.Context, clock Clock, policy RetryPolicy, shard, attempt int, run func(ctx context.Context, attempt int) error) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- protect(func() error {
			if s.Disrupt != nil {
				if derr := s.Disrupt(shard, attempt); derr != nil {
					return derr
				}
			}
			return run(actx, attempt)
		})
	}()
	var timeout <-chan time.Time
	if policy.Timeout > 0 {
		timeout = clock.After(policy.Timeout)
	}
	select {
	case err := <-done:
		return err
	case <-timeout:
		cancel()
		if err := <-done; err == nil {
			return nil
		}
		return fmt.Errorf("serve: shard %d attempt %d: timeout after %v", shard, attempt, policy.Timeout)
	}
}

// protect converts a panic in f into an error, so one crashed attempt
// becomes a retriable shard failure instead of killing the
// server.
func protect(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: worker panic: %v", r)
		}
	}()
	return f()
}
