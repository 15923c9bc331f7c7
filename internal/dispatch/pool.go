package dispatch

import (
	"context"
	"fmt"
	"sync"
)

// Retry is the measurement plane's one retry policy — job-level fault
// tolerance in the role the paper's MPI_Comm_launch enhancement plays
// (§7.1). Local applies it per item, Remote per shard. Relaunches are
// immediate; the zero value retries nothing.
type Retry struct {
	// MaxRetries is how many times a failed job is relaunched before the
	// batch is abandoned.
	MaxRetries int
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

	// Every index is queued up front: a worker takes its next job without
	// waiting on a feeder, and a cancelled context is seen per job below.
	queue := make(chan int, len(jobs))
	for i := range jobs {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = runOne(ctx, retry, jobs[i])
			}
		}()
	}
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

// runOne executes a job, relaunching it on failure up to the retry bound
// or until ctx is cancelled.
func runOne[T any](ctx context.Context, retry Retry, job func(attempt int) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt := 0; attempt <= retry.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := ctx.Err(); err != nil {
				return zero, err
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
