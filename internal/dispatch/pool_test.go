package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

type job = func(attempt int) (float64, error)

func TestDoOrderPreserved(t *testing.T) {
	jobs := make([]job, 50)
	for i := range jobs {
		jobs[i] = func(int) (float64, error) { return float64(i * i), nil }
	}
	got, err := Do(context.Background(), 4, Retry{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i*i) {
			t.Fatalf("result[%d] = %v, want %v", i, v, i*i)
		}
	}
}

func TestRetriesOnTaskError(t *testing.T) {
	var calls atomic.Int32
	flaky := func(attempt int) (float64, error) {
		calls.Add(1)
		if attempt < 2 {
			return 0, fmt.Errorf("flaky failure %d", attempt)
		}
		return 42, nil
	}
	got, err := Do(context.Background(), 1, Retry{MaxRetries: 3}, []job{flaky})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("result = %v", got[0])
	}
	if calls.Load() != 3 {
		t.Fatalf("task called %d times, want 3", calls.Load())
	}
}

func TestPermanentFailureSurfaces(t *testing.T) {
	broken := errors.New("always broken")
	jobs := []job{
		func(int) (float64, error) { return 1, nil },
		func(int) (float64, error) { return 0, broken },
	}
	if _, err := Do(context.Background(), 2, Retry{MaxRetries: 2}, jobs); !errors.Is(err, broken) {
		t.Fatalf("err = %v, want the job's error", err)
	}
}

// failFirst returns a job that fails its first k launches, then yields v.
func failFirst(k int, v float64, launches *int32) job {
	return func(attempt int) (float64, error) {
		atomic.AddInt32(launches, 1)
		if attempt < k {
			return 0, fmt.Errorf("launch %d failed", attempt)
		}
		return v, nil
	}
}

func TestInjectedFailuresRecovered(t *testing.T) {
	// 100 tasks, task i failing its first i%7 launches, all complete under
	// 6 retries — exercising the MPI_Comm_launch-style relaunch path.
	jobs := make([]job, 100)
	launches := make([]int32, len(jobs))
	for i := range jobs {
		jobs[i] = failFirst(i%7, float64(i), &launches[i])
	}
	got, err := Do(context.Background(), 8, Retry{MaxRetries: 6}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("result[%d] = %v", i, v)
		}
	}
}

func TestInjectionDeterministic(t *testing.T) {
	// Same failure pattern -> same launch counts, at any pool width: a job
	// is relaunched exactly as often as it failed.
	for _, workers := range []int{1, 4} {
		jobs := make([]job, 20)
		launches := make([]int32, len(jobs))
		for i := range jobs {
			jobs[i] = failFirst(i%5, 0, &launches[i])
		}
		if _, err := Do(context.Background(), workers, Retry{MaxRetries: 10}, jobs); err != nil {
			t.Fatal(err)
		}
		for i, n := range launches {
			if int(n) != i%5+1 {
				t.Fatalf("workers=%d: job %d launched %d times, want %d", workers, i, n, i%5+1)
			}
		}
	}
}

func TestNewRunner(t *testing.T) {
	r := NewRunner(5)
	if r.Workers != 5 || r.Retry != (Retry{MaxRetries: 3}) {
		t.Fatalf("NewRunner(5) = %+v, want width 5 and three immediate retries", r)
	}
}

func TestEmptyBatch(t *testing.T) {
	got, err := Do[float64](context.Background(), 1, Retry{}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

func TestDoCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	jobs := make([]job, 30)
	for i := range jobs {
		jobs[i] = func(int) (float64, error) {
			if ran.Add(1) == 1 {
				cancel()
			}
			return 1, nil
		}
	}
	_, err := Do(ctx, 1, Retry{MaxRetries: 2}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= int32(len(jobs)) {
		t.Fatalf("cancellation did not stop dispatch: %d/%d tasks ran", n, len(jobs))
	}
}

func TestDoPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []job{func(int) (float64, error) { return 1, nil }}
	if _, err := Do(ctx, 4, Retry{}, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDoNilCtxIsBackground(t *testing.T) {
	got, err := Do(nil, 2, Retry{}, []job{func(int) (float64, error) { return 42, nil }})
	if err != nil || got[0] != 42 {
		t.Fatalf("got %v, %v", got, err)
	}
}
