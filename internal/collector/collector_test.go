package collector

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/dispatch"
)

// countingEval is a deterministic evaluator that counts real measurements.
type countingEval struct {
	mu       sync.Mutex
	wfCalls  map[string]int
	cmpCalls map[string]int
	// block, when non-nil, is received from before every workflow
	// measurement returns (single-flight and cancellation tests).
	block chan struct{}
	// onMeasure, when non-nil, runs at the start of every workflow
	// measurement.
	onMeasure func()
}

func newCountingEval() *countingEval {
	return &countingEval{wfCalls: map[string]int{}, cmpCalls: map[string]int{}}
}

func (e *countingEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	if e.onMeasure != nil {
		e.onMeasure()
	}
	if e.block != nil {
		<-e.block
	}
	e.mu.Lock()
	e.wfCalls[cfg.Key()]++
	e.mu.Unlock()
	// Deterministic per configuration.
	v := 0.0
	for i, x := range cfg {
		v += float64((i + 1) * x)
	}
	return v, nil
}

func (e *countingEval) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	key := "fixed"
	if cfg != nil {
		key = cfg.Key()
	}
	e.mu.Lock()
	e.cmpCalls[fmt.Sprintf("%d:%s", j, key)]++
	e.mu.Unlock()
	if cfg == nil {
		return float64(100 + j), nil
	}
	return float64(j+1) * float64(cfg[0]), nil
}

func (e *countingEval) totalWfCalls() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, c := range e.wfCalls {
		n += c
	}
	return n
}

// newLocal returns a collector over an in-process pool of the given width
// and retry policy.
func newLocal(eval Evaluator, workers int, retry dispatch.Retry) *Collector {
	return New(dispatch.NewLocal(eval, &dispatch.Runner{Workers: workers, Retry: retry}))
}

func cfgs(rows ...[]int) []cfgspace.Config {
	out := make([]cfgspace.Config, len(rows))
	for i, r := range rows {
		out[i] = cfgspace.Config(r)
	}
	return out
}

func TestCacheHitMissAccounting(t *testing.T) {
	eval := newCountingEval()
	c := newLocal(eval, 4, dispatch.Retry{MaxRetries: 2})

	batch := cfgs([]int{1, 2}, []int{3, 4}, []int{1, 2}) // one in-batch duplicate
	s1, err := c.MeasureWorkflows(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if s1[0].Value != s1[2].Value {
		t.Fatalf("duplicate configs measured differently: %v vs %v", s1[0].Value, s1[2].Value)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Coalesced != 1 || st.Hits != 0 {
		t.Fatalf("after first batch: %+v (want 2 misses, 1 coalesced, 0 hits)", st)
	}
	if got := eval.totalWfCalls(); got != 2 {
		t.Fatalf("evaluator ran %d times, want 2", got)
	}

	// Second pass over the same configs: all hits, no new evaluations.
	s2, err := c.MeasureWorkflows(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i].Value != s2[i].Value {
			t.Fatalf("cached value drifted at %d: %v vs %v", i, s1[i].Value, s2[i].Value)
		}
	}
	st = c.Stats()
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("after second batch: %+v (want 3 hits, 2 misses)", st)
	}
	if got := eval.totalWfCalls(); got != 2 {
		t.Fatalf("cache re-ran the evaluator: %d calls, want 2", got)
	}
	if st.WorkflowRuns != 2 {
		t.Fatalf("WorkflowRuns = %d, want 2", st.WorkflowRuns)
	}

	// Component keys are namespaced per component index.
	if _, err := c.MeasureComponents(context.Background(), 0, cfgs([]int{5})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MeasureComponents(context.Background(), 1, cfgs([]int{5})); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.ComponentRuns != 2 {
		t.Fatalf("same sub-config on different components must not share cache: %+v", st)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	eval := newCountingEval()
	eval.block = make(chan struct{})
	started := make(chan struct{}, 16)
	eval.onMeasure = func() { started <- struct{}{} }
	c := newLocal(eval, 4, dispatch.Retry{MaxRetries: 2})

	cfg := cfgspace.Config{7, 7}
	type res struct {
		v   float64
		err error
	}
	out := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			s, err := c.MeasureWorkflows(context.Background(), []cfgspace.Config{cfg})
			if err != nil {
				out <- res{err: err}
				return
			}
			out <- res{v: s[0].Value}
		}()
	}

	// Exactly one goroutine becomes the leader and starts measuring; the
	// other must register as coalesced without starting a measurement.
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second requester never coalesced onto the in-flight measurement")
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.InFlight != 1 || st.InFlightPeak != 1 {
		t.Fatalf("in-flight accounting: %+v (want exactly 1 in flight)", st)
	}
	close(eval.block)

	r1, r2 := <-out, <-out
	if r1.err != nil || r2.err != nil {
		t.Fatalf("errors: %v, %v", r1.err, r2.err)
	}
	if r1.v != r2.v {
		t.Fatalf("coalesced requesters disagree: %v vs %v", r1.v, r2.v)
	}
	if got := eval.totalWfCalls(); got != 1 {
		t.Fatalf("identical concurrent configs measured %d times, want 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != 1 || st.InFlight != 0 {
		t.Fatalf("final stats: %+v (want 1 miss, 1 coalesced, 0 in flight)", st)
	}
}

func TestContextCancellationMidBatch(t *testing.T) {
	eval := newCountingEval()
	ctx, cancel := context.WithCancel(context.Background())
	// The first measurement cancels the context; with one worker, the
	// remaining queued configurations must not be dispatched.
	var once sync.Once
	eval.onMeasure = func() { once.Do(cancel) }
	c := newLocal(eval, 1, dispatch.Retry{MaxRetries: 2})

	batch := make([]cfgspace.Config, 20)
	for i := range batch {
		batch[i] = cfgspace.Config{i, i + 1}
	}
	_, err := c.MeasureWorkflows(ctx, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := eval.totalWfCalls(); got >= len(batch) {
		t.Fatalf("cancellation did not stop dispatch: %d/%d tasks ran", got, len(batch))
	}
	if st := c.Stats(); st.Errors == 0 {
		t.Fatalf("cancelled batch not counted as error: %+v", st)
	}

	// An already-cancelled context fails fast without touching the runner.
	before := eval.totalWfCalls()
	if _, err := c.MeasureWorkflows(ctx, cfgs([]int{99, 99})); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if eval.totalWfCalls() != before {
		t.Fatal("cancelled context still dispatched work")
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	batch := cfgs(
		[]int{1, 2}, []int{3, 4}, []int{1, 2}, []int{5, 6},
		[]int{3, 4}, []int{7, 8}, []int{5, 6}, []int{1, 2},
	)
	var want []Sample
	for _, workers := range []int{1, 8} {
		c := newLocal(newCountingEval(), workers, dispatch.Retry{MaxRetries: 2})
		got, err := c.MeasureWorkflows(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if want[i].Value != got[i].Value {
				t.Fatalf("workers=%d diverges at %d: %v vs %v", workers, i, want[i].Value, got[i].Value)
			}
		}
	}
}

// flakyEval loses the first cfg[0]%3 launches of each workflow
// configuration and is its countingEval after that.
type flakyEval struct{ *countingEval }

func (e flakyEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	e.mu.Lock()
	n := e.wfCalls[cfg.Key()]
	lost := n < cfg[0]%3
	if lost {
		e.wfCalls[cfg.Key()]++
	}
	e.mu.Unlock()
	if lost {
		return 0, fmt.Errorf("launch %d of %v lost", n, cfg)
	}
	return e.countingEval.MeasureWorkflow(cfg)
}

func TestRetryAccounting(t *testing.T) {
	c := newLocal(flakyEval{newCountingEval()}, 2, dispatch.Retry{MaxRetries: 3})
	batch := make([]cfgspace.Config, 16)
	want := uint64(0)
	for i := range batch {
		batch[i] = cfgspace.Config{i}
		want += uint64(i % 3)
	}
	if _, err := c.MeasureWorkflows(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Retries != want {
		t.Fatalf("Stats.Retries = %d, want the %d relaunches the batch needed: %+v", st.Retries, want, st)
	}
}

func TestNoEvaluatorErrors(t *testing.T) {
	c := New(dispatch.NewLocal(nil, nil))
	if _, err := c.MeasureWorkflows(context.Background(), cfgs([]int{1})); err == nil {
		t.Fatal("MeasureWorkflows with no evaluator must error")
	}
	if _, err := c.MeasureComponents(context.Background(), 0, cfgs([]int{1})); err == nil {
		t.Fatal("MeasureComponents with no evaluator must error")
	}
}

// lastDispatcher answers 1 for every item but the batch's last, which gets
// v — a remote worker gone wrong on one measurement.
type lastDispatcher struct{ v float64 }

func (d lastDispatcher) Dispatch(_ context.Context, batch []dispatch.Item) ([]dispatch.Measurement, error) {
	ms := make([]dispatch.Measurement, len(batch))
	for i, it := range batch {
		ms[i] = dispatch.Measurement{Seq: it.Seq, Value: 1}
	}
	ms[len(ms)-1].Value = d.v
	return ms, nil
}

func TestBadMeasurementRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		c := New(lastDispatcher{bad})
		// Two leaders (the second gets the bad value; the first's good one
		// must not be cached either) and a waiter on the first's flight.
		_, err := c.MeasureWorkflows(context.Background(), cfgs([]int{1}, []int{2}, []int{1}))
		if !errors.Is(err, dispatch.ErrBadMeasurement) {
			t.Fatalf("value %v: err = %v, want ErrBadMeasurement", bad, err)
		}
		if _, err := c.MeasureComponents(context.Background(), 0, cfgs([]int{3})); !errors.Is(err, dispatch.ErrBadMeasurement) {
			t.Fatalf("value %v (component): err = %v, want ErrBadMeasurement", bad, err)
		}
		if st := c.Stats(); st.Errors != 2 || st.InFlight != 0 {
			t.Fatalf("value %v: stats = %+v, want 2 errors and nothing in flight", bad, st)
		}
		// Nothing was cached: measuring the same keys again misses on each.
		before := c.Stats().Misses
		c.MeasureWorkflows(context.Background(), cfgs([]int{1}, []int{2}))
		c.MeasureComponents(context.Background(), 0, cfgs([]int{3}))
		if st := c.Stats(); st.Hits != 0 || st.Misses != before+3 {
			t.Fatalf("value %v reached the cache: %+v (misses before %d)", bad, st, before)
		}
	}
	// Zero is a legitimate measurement.
	if _, err := New(lastDispatcher{0}).MeasureWorkflows(context.Background(), cfgs([]int{1})); err != nil {
		t.Fatalf("zero rejected: %v", err)
	}
}
