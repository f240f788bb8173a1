package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the supervisor's state machine without real sleeps:
// After records the requested duration and fires immediately, so retry
// and timeout paths execute deterministically at full speed.
type fakeClock struct {
	mu     sync.Mutex
	afters []time.Duration
}

func (c *fakeClock) Now() time.Time { return time.Unix(0, 0) }

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.afters = append(c.afters, d)
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, 0)
	return ch
}

func (c *fakeClock) requested() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.afters...)
}

// counterDisrupt fails selected (shard, attempt) pairs; thread-safe.
type counterDisrupt struct {
	mu    sync.Mutex
	calls int
	fail  func(shard, attempt int) error
}

func (d *counterDisrupt) disrupt(shard, attempt int) error {
	d.mu.Lock()
	d.calls++
	d.mu.Unlock()
	return d.fail(shard, attempt)
}

// succeed is a shard run that completes on every attempt.
func succeed(context.Context, int) error { return nil }

// TestSupervisorRetriesThenSucceeds: transient failures are retried with
// backoff and the shard completes without poisoning.
func TestSupervisorRetriesThenSucceeds(t *testing.T) {
	clock := &fakeClock{}
	d := &counterDisrupt{fail: func(shard, attempt int) error {
		if shard == 1 && attempt <= 2 {
			return fmt.Errorf("transient %d/%d", shard, attempt)
		}
		return nil
	}}
	sup := &Supervisor{Policy: RetryPolicy{MaxAttempts: 3}, Clock: clock, Disrupt: d.disrupt}
	if rep := sup.Do(context.Background(), 0, succeed); rep != (ShardReport{Attempts: 1}) {
		t.Errorf("shard 0 report %+v, want one clean attempt", rep)
	}
	if rep := sup.Do(context.Background(), 1, succeed); rep != (ShardReport{Attempts: 3}) {
		t.Errorf("shard 1 report %+v, want 3 attempts, recovered", rep)
	}
	if d.calls != 4 {
		t.Errorf("%d attempts, want 4 (1 for shard 0, 3 for shard 1)", d.calls)
	}
	// Two backoff sleeps were requested, with exponential growth.
	afters := clock.requested()
	if len(afters) != 2 {
		t.Fatalf("%d backoff sleeps, want 2", len(afters))
	}
	p := sup.Policy
	for i, d := range afters {
		if want := p.Backoff(sup.Seed, 1, i+1); d != want {
			t.Errorf("backoff %d = %v, want %v", i, d, want)
		}
	}
}

// TestSupervisorQuarantine: a shard failing every attempt is poisoned
// after its retry budget, and the next shard still runs clean.
func TestSupervisorQuarantine(t *testing.T) {
	d := &counterDisrupt{fail: func(shard, attempt int) error {
		if shard == 0 {
			return errors.New("hard failure")
		}
		return nil
	}}
	sup := &Supervisor{Policy: RetryPolicy{MaxAttempts: 3}, Clock: &fakeClock{}, Disrupt: d.disrupt}
	if rep := sup.Do(context.Background(), 0, succeed); !rep.Poisoned || rep.Attempts != 3 || rep.Err == "" {
		t.Errorf("shard 0 report %+v, want poisoned after 3 attempts with error", rep)
	}
	if rep := sup.Do(context.Background(), 1, succeed); rep != (ShardReport{Attempts: 1}) {
		t.Errorf("shard 1 report %+v, want one clean attempt", rep)
	}
}

// TestSupervisorPanicRecovered: a panicking attempt is contained,
// converted to a retriable failure, and the shard recovers.
func TestSupervisorPanicRecovered(t *testing.T) {
	d := &counterDisrupt{fail: func(shard, attempt int) error {
		if attempt == 1 {
			panic("worker crashed")
		}
		return nil
	}}
	sup := &Supervisor{Policy: RetryPolicy{MaxAttempts: 3}, Clock: &fakeClock{}, Disrupt: d.disrupt}
	if rep := sup.Do(context.Background(), 0, succeed); rep != (ShardReport{Attempts: 2}) {
		t.Errorf("report %+v, want recovery on attempt 2", rep)
	}
}

// TestSupervisorTimeout: an attempt overrunning its deadline is
// cancelled, awaited, and retried.
func TestSupervisorTimeout(t *testing.T) {
	sup := &Supervisor{
		Policy: RetryPolicy{MaxAttempts: 2, Timeout: time.Second},
		Clock:  &fakeClock{}, // the deadline fires immediately
	}
	var mu sync.Mutex
	attempts := 0
	rep := sup.Do(context.Background(), 0, func(ctx context.Context, attempt int) error {
		mu.Lock()
		attempts++
		mu.Unlock()
		if attempt == 1 {
			<-ctx.Done() // simulate a hung cell: only the deadline frees it
			return ctx.Err()
		}
		return nil
	})
	if rep != (ShardReport{Attempts: 2}) {
		t.Errorf("report %+v, want recovery on attempt 2 after timeout", rep)
	}
	if attempts != 2 {
		t.Errorf("run called %d times, want 2", attempts)
	}
}

// TestSupervisorCancel: context cancellation stops the shard without
// poisoning it or retrying — cancelled work must stay retriable on
// resume, and the report's error marks it unfinished.
func TestSupervisorCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := &Supervisor{Policy: RetryPolicy{MaxAttempts: 3}, Clock: &fakeClock{}}
	rep := sup.Do(ctx, 0, func(ctx context.Context, attempt int) error {
		cancel()
		return ctx.Err()
	})
	if rep.Poisoned || rep.Attempts != 1 || rep.Err != context.Canceled.Error() {
		t.Errorf("report %+v, want one unpoisoned attempt ending in %q", rep, context.Canceled)
	}
}

// TestBackoffDeterministicAndBounded: the schedule is a pure function of
// (seed, shard, attempt), grows exponentially, and stays within twice the
// cap (base delay plus sub-delay jitter).
func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BackoffBase: 50 * time.Millisecond, BackoffMax: 5 * time.Second}
	for shard := 0; shard < 3; shard++ {
		prevBase := time.Duration(0)
		for attempt := 1; attempt <= 10; attempt++ {
			d := p.Backoff(7, shard, attempt)
			if d2 := p.Backoff(7, shard, attempt); d2 != d {
				t.Fatalf("Backoff not deterministic: %v then %v", d, d2)
			}
			base := p.BackoffBase << (attempt - 1)
			if base > p.BackoffMax {
				base = p.BackoffMax
			}
			if d < base || d >= 2*base {
				t.Errorf("shard %d attempt %d: backoff %v outside [%v, %v)", shard, attempt, d, base, 2*base)
			}
			if base < prevBase {
				t.Errorf("backoff base shrank: %v after %v", base, prevBase)
			}
			prevBase = base
		}
	}
	// Different shards jitter differently (with overwhelming probability).
	if p.Backoff(7, 0, 1) == p.Backoff(7, 1, 1) && p.Backoff(7, 0, 2) == p.Backoff(7, 1, 2) {
		t.Error("jitter identical across shards — lockstep retries")
	}
}
