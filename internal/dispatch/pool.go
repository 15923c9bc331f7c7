package dispatch

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// Retry is the measurement plane's one retry policy — job-level fault
// tolerance in the role the paper's MPI_Comm_launch enhancement plays
// (§7.1). Local applies it per item, Remote per shard. The zero value
// retries nothing; with MaxRetries set and everything else zero, retries
// are immediate, which keeps deterministic tests instant.
type Retry struct {
	// MaxRetries is how many times a failed job is relaunched before the
	// batch is abandoned.
	MaxRetries int
	// Backoff is the delay before the first retry of a failed job; each
	// further retry doubles it, capped at BackoffMax. Zero retries
	// immediately.
	Backoff time.Duration
	// BackoffMax bounds the exponential growth; zero means 30s.
	BackoffMax time.Duration
	// Jitter spreads each backoff delay by a deterministic random factor
	// in [1-Jitter, 1+Jitter] (clamped to [0,1]), so N dispatchers retrying
	// a flaky endpoint don't thundering-herd in lockstep. The jitter stream
	// is seeded by Seed and salted per job and attempt: the same
	// (seed, job, attempt) always draws the same delay, keeping runs
	// reproducible, while policies with different seeds decorrelate. Zero
	// disables jitter.
	Jitter float64
	// Seed drives the jitter and failure-injection streams — give each
	// replica/dispatcher its own so their retries decorrelate.
	Seed uint64
	// FailureRate injects simulated job failures with this probability per
	// attempt (testing the fault-tolerance path); 0 disables injection.
	FailureRate float64
}

// Runner shapes the in-process measurement pool: parallel width plus the
// retry policy.
type Runner struct {
	// Workers is the parallel width; values below 1 run serially.
	Workers int
	Retry
}

// NewRunner returns a pool of the given width with the retry policy every
// binary runs with: three immediate relaunches.
func NewRunner(workers int) *Runner {
	return &Runner{Workers: workers, Retry: Retry{MaxRetries: 3}}
}

// Do runs a batch of jobs on a pool of the given width under the retry
// policy and returns their results in submission order regardless of
// completion order. A job that exhausts its retries fails the batch with
// the lowest-index such error. Once ctx is cancelled Do stops handing out
// queued jobs, drains its workers and returns ctx.Err(); jobs already
// executing run to completion (the simulator has no preemption, mirroring
// how a cluster job outlives its submitting script).
func Do[T any](ctx context.Context, workers int, retry Retry, jobs []func(attempt int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))

	var wg sync.WaitGroup
	queue := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = runOne(ctx, retry, i, jobs[i])
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case queue <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(queue)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dispatch: task %d failed after %d retries: %w", i, retry.MaxRetries, err)
		}
	}
	return results, nil
}

// runOne executes a job with retries, backoff and (optional) deterministic
// fault injection.
func runOne[T any](ctx context.Context, retry Retry, idx int, job func(attempt int) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt := 0; attempt <= retry.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := retry.wait(ctx, idx, attempt); err != nil {
				return zero, err
			}
		}
		if retry.FailureRate > 0 {
			// Deterministic per (seed, task, attempt) failure injection.
			rng := rand.New(rand.NewPCG(retry.Seed, uint64(idx)<<20|uint64(attempt)))
			if rng.Float64() < retry.FailureRate {
				lastErr = fmt.Errorf("injected job failure (attempt %d)", attempt)
				continue
			}
		}
		v, err := job(attempt)
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	return zero, lastErr
}

// wait sleeps out the backoff before retry attempt (1-based) of job idx,
// returning early with ctx.Err() on cancellation.
func (r Retry) wait(ctx context.Context, idx, attempt int) error {
	if r.Backoff <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(r.BackoffDelay(idx, attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BackoffDelay returns the delay before retry attempt (1-based) of job
// idx: bounded exponential growth from Backoff to BackoffMax, scaled by
// the deterministic seeded jitter factor. Exported so tests (and capacity
// planning) can inspect the schedule without sleeping through it.
func (r Retry) BackoffDelay(idx, attempt int) time.Duration {
	maxd := r.BackoffMax
	if maxd <= 0 {
		maxd = 30 * time.Second
	}
	d := r.Backoff
	for i := 1; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	if j := r.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		// A distinct stream constant keeps the jitter draws independent of
		// the failure-injection stream, which shares Seed but salts with
		// idx<<20|attempt.
		const jitterStream = 0x6a177e52
		rng := rand.New(rand.NewPCG(r.Seed, jitterStream^(uint64(idx)<<32|uint64(attempt))))
		f := 1 + j*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
		if d > maxd {
			d = maxd
		}
		if d < 0 {
			d = 0
		}
	}
	return d
}
