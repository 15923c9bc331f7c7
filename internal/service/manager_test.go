package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/collector"
	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

// tinySpec is a fast real tuning job (~ms on the simulator).
func tinySpec(seed uint64) JobSpec {
	return JobSpec{Benchmark: "LV", Algorithm: "rs", Objective: "comp", Budget: 5, Pool: 30, Seed: seed}
}

// slowEval delays every measurement, stretching a run so tests can observe
// and cancel it mid-flight.
type slowEval struct {
	inner collector.Evaluator
	delay time.Duration
	calls *atomic.Int64 // counts evaluator calls when set
}

func (e *slowEval) measure() {
	time.Sleep(e.delay)
	if e.calls != nil {
		e.calls.Add(1)
	}
}

func (e *slowEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	e.measure()
	return e.inner.MeasureWorkflow(cfg)
}

func (e *slowEval) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	e.measure()
	return e.inner.MeasureComponent(j, cfg)
}

// slowBuild builds the spec's real problem with every measurement delayed.
func slowBuild(delay time.Duration) func(JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
	return countedBuild(delay, nil)
}

// countedBuild is slowBuild counting evaluator calls in calls (nil: none).
func countedBuild(delay time.Duration, calls *atomic.Int64) func(JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
	return func(spec JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
		p, alg, err := BuildSpec(spec)
		if err != nil {
			return nil, nil, err
		}
		p.Eval = &slowEval{inner: p.Eval, delay: delay, calls: calls}
		return p, alg, nil
	}
}

func waitDone(t *testing.T, m *Manager, id string) *histdb.RunRecord {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Wait(ctx, id); err != nil {
		t.Fatalf("run %s did not finish: %v", id, err)
	}
	rec, ok := m.Get(id)
	if !ok {
		t.Fatalf("run %s vanished", id)
	}
	return rec
}

// waitRunning polls until the run leaves the queue (a gated Build counts:
// the worker marks it running before calling Build).
func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, ok := m.Get(id)
		if ok && got.State == histdb.StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never started (state %v)", id, got)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestManagerRunsJobToCompletion(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Shutdown(context.Background())

	rec, fresh, err := m.Submit(tinySpec(2))
	if err != nil || !fresh {
		t.Fatalf("Submit = %v, fresh %v", err, fresh)
	}
	got := waitDone(t, m, rec.ID)
	if got.State != histdb.StateDone {
		t.Fatalf("state = %s (%s)", got.State, got.Error)
	}
	if got.Result == nil || len(got.Result.Samples) != 5 {
		t.Fatalf("result = %+v", got.Result)
	}
	if len(got.Trace) == 0 {
		t.Fatal("no trace persisted")
	}
	if got.Collector.Misses == 0 {
		t.Fatal("collector stats not captured")
	}
	if got.StartedAt.IsZero() || got.FinishedAt.Before(got.StartedAt) {
		t.Fatalf("timestamps: started %v finished %v", got.StartedAt, got.FinishedAt)
	}

	// Resubmitting the identical spec is served from the store.
	again, fresh, err := m.Submit(tinySpec(2))
	if err != nil || fresh {
		t.Fatalf("resubmit = %v, fresh %v", err, fresh)
	}
	if again.ID != rec.ID || again.State != histdb.StateDone {
		t.Fatalf("resubmit got %s/%s, want %s/done", again.ID, again.State, rec.ID)
	}

	mt := m.Metrics()
	if mt.Submitted != 1 || mt.Finished != 1 || mt.Deduped != 1 || mt.Failed != 0 {
		t.Fatalf("metrics = %+v", mt)
	}
	if mt.CacheMisses == 0 {
		t.Fatal("collector cache misses not aggregated")
	}
}

func TestManagerInFlightDedupAndQueueFull(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Options{
		Workers:    1,
		QueueLimit: 1,
		Build: func(spec JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			<-gate
			return BuildSpec(spec)
		},
	})
	defer m.Shutdown(context.Background())

	a, fresh, err := m.Submit(tinySpec(1))
	if err != nil || !fresh {
		t.Fatalf("submit a: %v, fresh %v", err, fresh)
	}
	// Same spec while a is in flight: joined, not re-queued.
	joined, fresh, err := m.Submit(tinySpec(1))
	if err != nil || fresh || joined.ID != a.ID {
		t.Fatalf("join = %+v fresh %v err %v", joined, fresh, err)
	}
	// Wait for the worker to pop a (it parks in Build on the gate) so the
	// queue slot is free again; then b fills the queue and c is rejected at
	// admission.
	waitRunning(t, m, a.ID)
	b, fresh, err := m.Submit(tinySpec(2))
	if err != nil || !fresh {
		t.Fatalf("submit b: %v, fresh %v", err, fresh)
	}
	if _, _, err := m.Submit(tinySpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	close(gate)
	if got := waitDone(t, m, a.ID); got.State != histdb.StateDone {
		t.Fatalf("a = %s", got.State)
	}
	if got := waitDone(t, m, b.ID); got.State != histdb.StateDone {
		t.Fatalf("b = %s", got.State)
	}
	if mt := m.Metrics(); mt.Deduped != 1 || mt.Finished != 2 {
		t.Fatalf("metrics = %+v", mt)
	}
}

func TestManagerCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Options{
		Workers:    1,
		QueueLimit: 4,
		Build: func(spec JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			<-gate
			return BuildSpec(spec)
		},
	})
	defer m.Shutdown(context.Background())
	defer close(gate) // LIFO: release the worker before Shutdown waits on it

	if _, _, err := m.Submit(tinySpec(1)); err != nil { // occupies the worker
		t.Fatal(err)
	}
	b, _, err := m.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != histdb.StateCancelled {
		t.Fatalf("queued cancel state = %s", got.State)
	}
	// The spec key is free again: resubmitting starts a fresh run.
	fresh2, fresh, err := m.Submit(tinySpec(2))
	if err != nil || !fresh || fresh2.ID == b.ID {
		t.Fatalf("resubmit after cancel = %+v fresh %v err %v", fresh2, fresh, err)
	}
}

func TestManagerCancelMidRunWithinOneBatch(t *testing.T) {
	// 40 budget × 10ms per measurement ≈ 400ms uncancelled. RS measures all
	// of it as one seed batch, so a prompt cancel must abort inside that
	// batch, not after it.
	spec := JobSpec{Benchmark: "LV", Algorithm: "rs", Objective: "comp", Budget: 40, Pool: 100, Seed: 3}
	m := NewManager(Options{Workers: 1, Build: slowBuild(10 * time.Millisecond)})
	defer m.Shutdown(context.Background())

	rec, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := m.Get(rec.ID)
		if got.State == histdb.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never started: %s", got.State)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // let a few measurements land
	start := time.Now()
	if _, err := m.Cancel(rec.ID); err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, rec.ID)
	elapsed := time.Since(start)
	if got.State != histdb.StateCancelled {
		t.Fatalf("state = %s", got.State)
	}
	if got.Error == "" {
		t.Fatal("cancelled run has no error")
	}
	if got.Result != nil {
		t.Fatal("cancelled run has a result")
	}
	// Well under the ~370ms the remaining measurements would have taken.
	if elapsed > 200*time.Millisecond {
		t.Fatalf("cancel took %v", elapsed)
	}
	if mt := m.Metrics(); mt.Cancelled != 1 {
		t.Fatalf("metrics = %+v", mt)
	}
}

func TestManagerShutdownCancelsInFlight(t *testing.T) {
	spec := JobSpec{Benchmark: "LV", Algorithm: "rs", Objective: "comp", Budget: 40, Pool: 100, Seed: 4}
	m := NewManager(Options{Workers: 1, Build: slowBuild(10 * time.Millisecond)})

	rec, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := m.Submit(tinySpec(9))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got, _ := m.Get(rec.ID); got.State != histdb.StateCancelled {
		t.Fatalf("in-flight run = %s after shutdown", got.State)
	}
	if got, _ := m.Get(queued.ID); got.State != histdb.StateCancelled {
		t.Fatalf("queued run = %s after shutdown", got.State)
	}
	if _, _, err := m.Submit(tinySpec(5)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown submit = %v, want ErrDraining", err)
	}
}

func TestManagerBuildFailureMarksFailed(t *testing.T) {
	m := NewManager(Options{
		Workers: 1,
		Build: func(spec JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			return nil, nil, errors.New("boom")
		},
	})
	defer m.Shutdown(context.Background())
	rec, _, err := m.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, rec.ID)
	if got.State != histdb.StateFailed || got.Error != "boom" {
		t.Fatalf("got %s / %q", got.State, got.Error)
	}
	if mt := m.Metrics(); mt.Failed != 1 {
		t.Fatalf("metrics = %+v", mt)
	}
}

// failingStore is a Store whose every Save and SaveProgress is refused.
type failingStore struct{ *histdb.MemStore }

func (failingStore) Save(*histdb.RunRecord) error { return errors.New("disk full") }

func (failingStore) SaveProgress(*histdb.Progress) error { return errors.New("disk full") }

// TestManagerCountsAndLogsStoreSaveErrors: a store that refuses every save
// never fails the run, but each refusal is counted on /metrics and logged
// with the run ID and the error.
func TestManagerCountsAndLogsStoreSaveErrors(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	m := NewManager(Options{Workers: 1, Store: failingStore{histdb.NewMemStore()}})
	rec, _, err := m.Submit(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Wait(ctx, rec.ID); err != nil {
		t.Fatalf("run did not finish: %v", err)
	}
	if err := m.Shutdown(ctx); err != nil { // no saveLocked runs past this
		t.Fatal(err)
	}
	mt := m.Metrics()
	if mt.Finished != 1 || mt.Failed != 0 {
		t.Fatalf("a failing store failed the run: %+v", mt)
	}
	// At least queued, running and done were each refused.
	if mt.StoreSaveErrors < 3 {
		t.Fatalf("StoreSaveErrors = %d, want >= 3", mt.StoreSaveErrors)
	}
	want := "service: saving run " + rec.ID + ": disk full"
	if got := strings.Count(logged.String(), want); got != int(mt.StoreSaveErrors) {
		t.Fatalf("%d log lines carry %q, want %d:\n%s", got, want, mt.StoreSaveErrors, logged.String())
	}

	rr := httptest.NewRecorder()
	NewServer(m).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	line := fmt.Sprintf("ceal_store_save_errors_total %d\n", mt.StoreSaveErrors)
	if !strings.Contains(rr.Body.String(), line) {
		t.Fatalf("/metrics missing %q:\n%s", line, rr.Body.String())
	}
}

// refreshFailingStore is a shared Store that can never re-read its directory.
type refreshFailingStore struct{ *histdb.MemStore }

func (refreshFailingStore) Refresh() error { return errors.New("directory unreadable") }

// TestManagerCountsAndLogsStoreRefreshErrors: a failed shared-store refresh
// leaves Submit answering from the in-memory view, and is counted on
// /metrics and logged.
func TestManagerCountsAndLogsStoreRefreshErrors(t *testing.T) {
	mem := histdb.NewMemStore()
	first := NewManager(Options{Workers: 1, Store: mem})
	sub, _, err := first.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, first, sub.ID)
	if err := first.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	m := NewManager(Options{Workers: 1, Store: refreshFailingStore{mem}})
	defer m.Shutdown(context.Background())
	rec, fresh, err := m.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if fresh || rec.ID != done.ID || rec.State != histdb.StateDone {
		t.Fatalf("Submit = %s/%s fresh=%v, want the stored %s served from memory", rec.ID, rec.State, fresh, done.ID)
	}
	if got := m.Metrics().StoreRefreshErrors; got != 1 {
		t.Fatalf("StoreRefreshErrors = %d, want 1", got)
	}
	if want := "service: refreshing the shared store: directory unreadable"; !strings.Contains(logged.String(), want) {
		t.Fatalf("log missing %q:\n%s", want, logged.String())
	}
	rr := httptest.NewRecorder()
	NewServer(m).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if line := "ceal_store_refresh_errors_total 1\n"; !strings.Contains(rr.Body.String(), line) {
		t.Fatalf("/metrics missing %q:\n%s", line, rr.Body.String())
	}
}

// nanProbe hands the run's observer one hostile event — a probe whose
// measured value is NaN, which no JSON encoder accepts — and then tunes.
type nanProbe struct{ tuner.Algorithm }

func (a nanProbe) Tune(p *tuner.Problem, budget int) (*tuner.Result, error) {
	p.Observer.OnEvent(&events.ProbeMeasured{Value: math.NaN()})
	return a.Algorithm.Tune(p, budget)
}

// TestManagerCountsAndLogsTraceMarshalErrors: an event the hub cannot
// marshal is dropped from the trace without failing the run, every other
// line is intact, and the drop is counted on /metrics and logged.
func TestManagerCountsAndLogsTraceMarshalErrors(t *testing.T) {
	spec := tinySpec(6)
	p, alg, err := BuildSpec(spec.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	var recd events.Recorder
	p.Observer = &recd
	if _, err := alg.Tune(p, spec.Budget); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, ev := range recd.Events() {
		line, err := events.MarshalJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	m := NewManager(Options{Workers: 1, Build: func(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
		p, alg, err := BuildSpec(s)
		return p, nanProbe{alg}, err
	}})
	defer m.Shutdown(context.Background())
	rec, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, rec.ID)
	if got.State != histdb.StateDone {
		t.Fatalf("state = %s (%s)", got.State, got.Error)
	}
	var trace bytes.Buffer
	for _, line := range got.Trace {
		trace.Write(line)
		trace.WriteByte('\n')
	}
	if !bytes.Equal(normalizeDurations(trace.Bytes()), normalizeDurations(want.Bytes())) {
		t.Fatalf("trace around the dropped line:\n%s\nwant:\n%s", trace.Bytes(), want.Bytes())
	}
	if n := m.Metrics().TraceMarshalErrors; n != 1 {
		t.Fatalf("TraceMarshalErrors = %d, want 1", n)
	}
	if want := "service: run " + rec.ID + ": dropping a trace line: json: unsupported value: NaN"; !strings.Contains(logged.String(), want) {
		t.Fatalf("log missing %q:\n%s", want, logged.String())
	}
	rr := httptest.NewRecorder()
	NewServer(m).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if line := "ceal_trace_marshal_errors_total 1\n"; !strings.Contains(rr.Body.String(), line) {
		t.Fatalf("/metrics missing %q:\n%s", line, rr.Body.String())
	}
}
