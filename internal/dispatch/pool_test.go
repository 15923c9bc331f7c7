package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
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

func TestInjectedFailuresRecovered(t *testing.T) {
	// With a 30% injected failure rate and 6 retries, 100 tasks should all
	// complete — exercising the MPI_Comm_launch-style relaunch path.
	jobs := make([]job, 100)
	for i := range jobs {
		jobs[i] = func(int) (float64, error) { return float64(i), nil }
	}
	got, err := Do(context.Background(), 8, Retry{MaxRetries: 6, FailureRate: 0.3, Seed: 99}, jobs)
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
	// Same seed -> same injected-failure pattern -> same attempt counts.
	run := func() []int32 {
		counts := make([]int32, 20)
		jobs := make([]job, 20)
		for i := range jobs {
			jobs[i] = func(int) (float64, error) {
				atomic.AddInt32(&counts[i], 1)
				return 0, nil
			}
		}
		if _, err := Do(context.Background(), 1, Retry{MaxRetries: 10, FailureRate: 0.5, Seed: 7}, jobs); err != nil {
			t.Fatal(err)
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt counts differ at %d: %d vs %d", i, a[i], b[i])
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

func TestBackoffDelaysRetries(t *testing.T) {
	var calls atomic.Int32
	start := time.Now()
	jobs := []job{func(int) (float64, error) {
		if calls.Add(1) <= 2 {
			return 0, fmt.Errorf("transient")
		}
		return 7, nil
	}}
	got, err := Do(context.Background(), 1, Retry{MaxRetries: 2, Backoff: 20 * time.Millisecond}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("got %v", got[0])
	}
	// Two retries: 20ms + 40ms of backoff minimum.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("retries not backed off: %v elapsed, want >= 60ms", elapsed)
	}
}

func TestBackoffCappedAtMax(t *testing.T) {
	r := Retry{Backoff: 10 * time.Millisecond, BackoffMax: 15 * time.Millisecond}
	start := time.Now()
	// Attempt 5 would be 160ms uncapped; must be <= BackoffMax.
	if err := r.wait(context.Background(), 0, 5); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("backoff not capped: %v", elapsed)
	}
}

func TestBackoffAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []job{func(int) (float64, error) { return 0, fmt.Errorf("always fails") }}
	done := make(chan error, 1)
	go func() {
		_, err := Do(ctx, 1, Retry{MaxRetries: 3, Backoff: 10 * time.Second}, jobs)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the task fail and enter backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt a 10s backoff sleep")
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	r := Retry{Backoff: 100 * time.Millisecond, BackoffMax: 10 * time.Second, Jitter: 0.5, Seed: 7}
	same := Retry{Backoff: 100 * time.Millisecond, BackoffMax: 10 * time.Second, Jitter: 0.5, Seed: 7}
	for idx := 0; idx < 4; idx++ {
		for attempt := 1; attempt <= 5; attempt++ {
			d := r.BackoffDelay(idx, attempt)
			if d != same.BackoffDelay(idx, attempt) {
				t.Fatalf("jitter not deterministic at (%d,%d)", idx, attempt)
			}
			base := 100 * time.Millisecond << (attempt - 1)
			lo, hi := time.Duration(float64(base)*0.5), time.Duration(float64(base)*1.5)
			if hi > 10*time.Second {
				hi = 10 * time.Second
			}
			if d < lo || d > hi {
				t.Fatalf("delay %v outside [%v, %v] at (%d,%d)", d, lo, hi, idx, attempt)
			}
		}
	}
}

// TestBackoffSchedulePinned holds the (seed, job, attempt) schedule bit for
// bit: a seed a deployment already runs with must keep drawing the same
// delays whatever happens to the code around the stream.
func TestBackoffSchedulePinned(t *testing.T) {
	r := Retry{Backoff: 100 * time.Millisecond, BackoffMax: 10 * time.Second, Jitter: 0.5, Seed: 7}
	want := map[[2]int]time.Duration{
		{0, 1}: 127372808,
		{0, 2}: 222810774,
		{1, 1}: 74004542,
		{3, 4}: 812229547,
		{2, 8}: 10000000000,
	}
	for k, w := range want {
		if d := r.BackoffDelay(k[0], k[1]); d != w {
			t.Fatalf("BackoffDelay(%d, %d) = %d, want %d", k[0], k[1], d, w)
		}
	}
}

func TestBackoffJitterSaltedPerSeedAndTask(t *testing.T) {
	a := Retry{Backoff: time.Second, Jitter: 0.5, Seed: 1}
	b := Retry{Backoff: time.Second, Jitter: 0.5, Seed: 2}
	// Different seeds (one per remote worker client) must decorrelate the
	// retry schedule — the anti-thundering-herd property.
	diff := false
	for attempt := 1; attempt <= 8 && !diff; attempt++ {
		diff = a.BackoffDelay(0, attempt) != b.BackoffDelay(0, attempt)
	}
	if !diff {
		t.Fatal("seeds 1 and 2 produced identical jitter schedules")
	}
	// So must distinct tasks within one policy.
	diff = false
	for idx := 0; idx < 8 && !diff; idx++ {
		diff = a.BackoffDelay(idx, 1) != a.BackoffDelay(idx+8, 1)
	}
	if !diff {
		t.Fatal("tasks share one jitter stream")
	}
}

func TestBackoffNoJitterExact(t *testing.T) {
	r := Retry{Backoff: 10 * time.Millisecond, BackoffMax: 35 * time.Millisecond}
	want := []time.Duration{10, 20, 35, 35}
	for i, w := range want {
		if d := r.BackoffDelay(3, i+1); d != w*time.Millisecond {
			t.Fatalf("attempt %d delay = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
}
