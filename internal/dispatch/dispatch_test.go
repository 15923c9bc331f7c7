package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// fakeEval is a deterministic evaluator: values depend only on the item,
// never on who or when it is measured — the property every evaluator in
// the repository shares and remote dispatch relies on.
type fakeEval struct{}

func (fakeEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	v := 1.0
	for _, x := range cfg {
		v = v*31 + float64(x)
	}
	return v, nil
}

func (fakeEval) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	if cfg == nil {
		return float64(100 + j), nil
	}
	v := float64(j)
	for _, x := range cfg {
		v = v*17 + float64(x)
	}
	return v, nil
}

func testBatch(n int) []Item {
	batch := make([]Item, n)
	for i := range batch {
		switch i % 3 {
		case 0:
			batch[i] = Item{Seq: i, Kind: KindWorkflow, Cfg: cfgspace.Config{i, i + 1, 2}}
		case 1:
			batch[i] = Item{Seq: i, Kind: KindComponent, Component: i % 2, Cfg: cfgspace.Config{i, 5}}
		default:
			batch[i] = Item{Seq: i, Kind: KindComponent, Component: 1} // fixed component, nil cfg
		}
	}
	return batch
}

// fakeWorker serves the wire protocol over fakeEval — the worker daemon's
// semantics without the simulator, for transport-level tests.
func fakeWorker(t *testing.T, opts ...func(*workerState)) (*httptest.Server, *workerState) {
	t.Helper()
	st := &workerState{eval: fakeEval{}}
	for _, o := range opts {
		o(st)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := st.requests.Add(1)
		if n <= st.failFirst || st.failAfter > 0 && n > st.failAfter {
			http.Error(w, "worker lost", http.StatusInternalServerError)
			return
		}
		var req MeasureRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Like the worker daemon, a fake worker relaunches nothing itself.
		local := NewLocal(st.eval, &Runner{Workers: 1})
		ms, err := local.Dispatch(r.Context(), req.Items)
		if err != nil {
			writeResp(w, http.StatusInternalServerError, MeasureResponse{Error: err.Error()})
			return
		}
		if st.reverse {
			for i, j := 0, len(ms)-1; i < j; i, j = i+1, j-1 {
				ms[i], ms[j] = ms[j], ms[i]
			}
		}
		writeResp(w, http.StatusOK, MeasureResponse{Results: ms})
	}))
	t.Cleanup(ts.Close)
	return ts, st
}

type workerState struct {
	requests  atomic.Uint64
	eval      Evaluator // what the worker measures with (default fakeEval)
	failFirst uint64    // 500 this many requests, then serve
	failAfter uint64    // succeed this many requests, then 500 everything
	reverse   bool      // return shard results in reverse order
}

func writeResp(w http.ResponseWriter, status int, resp MeasureResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

func dispatchValues(t *testing.T, d Dispatcher, batch []Item) []float64 {
	t.Helper()
	ms, err := d.Dispatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := ByIndex(batch, ms)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestJobCarriesOnlyANonzeroLoad: a job under the nominal condition
// marshals to the bytes it had before jobs carried a condition, so static
// runs' requests do not change; a loaded one carries its nonzero fields.
func TestJobCarriesOnlyANonzeroLoad(t *testing.T) {
	job := Job{Benchmark: "LV", Objective: "comp", Seed: 3}
	for ld, want := range map[cluster.Load]string{
		{}:                   `{"benchmark":"LV","objective":"comp","seed":3}`,
		{ComputeSlowdown: 2}: `{"benchmark":"LV","objective":"comp","seed":3,"load":{"compute_slowdown":2}}`,
	} {
		data, err := json.Marshal(job.Under(ld))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Fatalf("job under %+v = %s, want %s", ld, data, want)
		}
	}
}

func TestLocalDispatchOrderAndKinds(t *testing.T) {
	batch := testBatch(10)
	for _, workers := range []int{1, 3, 8} {
		local := NewLocal(fakeEval{}, &Runner{Workers: workers})
		vals := dispatchValues(t, local, batch)
		for i, it := range batch {
			var want float64
			switch it.Kind {
			case KindWorkflow:
				want, _ = fakeEval{}.MeasureWorkflow(it.Cfg)
			default:
				want, _ = fakeEval{}.MeasureComponent(it.Component, it.Cfg)
			}
			if vals[i] != want {
				t.Fatalf("workers=%d item %d = %v, want %v", workers, i, vals[i], want)
			}
		}
	}
}

func TestRemoteMatchesLocalAtAnyWorkerCount(t *testing.T) {
	batch := testBatch(23)
	want := dispatchValues(t, NewLocal(fakeEval{}, nil), batch)

	var urls []string
	for i := 0; i < 4; i++ {
		ts, _ := fakeWorker(t)
		urls = append(urls, ts.URL)
	}
	for _, n := range []int{1, 2, 4} {
		r := NewRemote(urls[:n], Job{Benchmark: "LV", Objective: "comp", Seed: 1})
		got := dispatchValues(t, r, batch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d remote workers: values diverged from local\n got %v\nwant %v", n, got, want)
		}
	}
}

func TestRemoteReassemblesOutOfOrderResults(t *testing.T) {
	batch := testBatch(17)
	want := dispatchValues(t, NewLocal(fakeEval{}, nil), batch)
	ts, _ := fakeWorker(t, func(s *workerState) { s.reverse = true })
	got := dispatchValues(t, NewRemote([]string{ts.URL}, Job{}), batch)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reversed shard results not reassembled by seq")
	}
}

func TestRemoteReassignsLostWorkerShard(t *testing.T) {
	batch := testBatch(12)
	want := dispatchValues(t, NewLocal(fakeEval{}, nil), batch)

	// Worker 1 dies after its first reply; its next shard must be retried
	// onto worker 0 and the batch still complete with identical values.
	healthy, _ := fakeWorker(t)
	flaky, st := fakeWorker(t, func(s *workerState) { s.failAfter = 1 })
	r := NewRemote([]string{healthy.URL, flaky.URL}, Job{})

	got := dispatchValues(t, r, batch)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("first dispatch diverged")
	}
	// Second dispatch: the flaky worker now 500s; rotation lands the shard
	// on the healthy worker.
	ms, err := r.Dispatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("dispatch with lost worker: %v", err)
	}
	got2, retries, err := ByIndex(batch, ms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("values diverged after worker loss")
	}
	reassigned := 0
	for _, n := range retries {
		if n > 0 {
			reassigned++
		}
	}
	if reassigned == 0 {
		t.Fatal("no item recorded a retry despite worker loss")
	}
	if st.requests.Load() < 2 {
		t.Fatalf("flaky worker saw %d requests", st.requests.Load())
	}
}

func TestRemoteFailsWhenAllWorkersDown(t *testing.T) {
	dead, _ := fakeWorker(t, func(s *workerState) { s.failAfter = 0 })
	dead.Close()
	r := NewRemote([]string{dead.URL}, Job{})
	if _, err := r.Dispatch(context.Background(), testBatch(3)); err == nil {
		t.Fatal("dispatch succeeded with no live workers")
	}
}

func TestRemoteInjectedFaultModel(t *testing.T) {
	// Each worker loses the first shard it is sent; with retries the batch
	// must still complete identically.
	batch := testBatch(16)
	want := dispatchValues(t, NewLocal(fakeEval{}, nil), batch)
	ts, _ := fakeWorker(t, func(s *workerState) { s.failFirst = 1 })
	ts2, _ := fakeWorker(t, func(s *workerState) { s.failFirst = 1 })
	r := NewRemote([]string{ts.URL, ts2.URL}, Job{})
	got := dispatchValues(t, r, batch)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("values diverged under shard failures")
	}
	if r.DispatchRetries() == 0 {
		t.Fatal("no shard was re-posted; the fault path went unexercised")
	}
}

// flakyEval fails the first launches of each workflow configuration, as
// many as its leading value says, and is fakeEval after that.
type flakyEval struct {
	fakeEval
	mu       sync.Mutex
	launches map[string]int
}

func (e *flakyEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	e.mu.Lock()
	n := e.launches[cfg.Key()]
	e.launches[cfg.Key()]++
	e.mu.Unlock()
	if n < cfg[0] {
		return 0, fmt.Errorf("launch %d of %v lost", n, cfg)
	}
	return e.fakeEval.MeasureWorkflow(cfg)
}

// TestLocalAndRemoteShareRetrySchedule drives both substrates into the
// same failures: job i of the pool (item i locally, shard i remotely)
// loses its first i launches, so both must report relaunch count i.
func TestLocalAndRemoteShareRetrySchedule(t *testing.T) {
	batch := make([]Item, 4)
	for i := range batch {
		batch[i] = Item{Seq: i, Kind: KindWorkflow, Cfg: cfgspace.Config{i, 7}}
	}
	want := []int{0, 1, 2, 3}

	local := NewLocal(&flakyEval{launches: map[string]int{}}, NewRunner(len(batch)))
	shared := &flakyEval{launches: map[string]int{}}
	var urls []string
	for range batch { // one worker per item: shard i is exactly item i
		ts, _ := fakeWorker(t, func(s *workerState) { s.eval = shared })
		urls = append(urls, ts.URL)
	}
	for _, d := range []Dispatcher{local, NewRemote(urls, Job{})} {
		ms, err := d.Dispatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		_, retries, err := ByIndex(batch, ms)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(retries, want) {
			t.Fatalf("%T relaunch counts = %v, want %v", d, retries, want)
		}
	}
}

func TestByIndexRejectsBadResponses(t *testing.T) {
	batch := testBatch(3)
	ok := []Measurement{{Seq: 0}, {Seq: 1}, {Seq: 2}}
	if _, _, err := ByIndex(batch, ok); err != nil {
		t.Fatal(err)
	}
	for name, ms := range map[string][]Measurement{
		"short":     {{Seq: 0}, {Seq: 1}},
		"duplicate": {{Seq: 0}, {Seq: 1}, {Seq: 1}},
		"unknown":   {{Seq: 0}, {Seq: 1}, {Seq: 9}},
	} {
		if _, _, err := ByIndex(batch, ms); err == nil {
			t.Fatalf("%s response accepted", name)
		}
	}
}

func TestLocalErrorsPropagate(t *testing.T) {
	local := NewLocal(failEval{}, &Runner{Workers: 2})
	if _, err := local.Dispatch(context.Background(), testBatch(4)); err == nil {
		t.Fatal("evaluator error swallowed")
	}
	if _, err := (&Local{}).Dispatch(context.Background(), testBatch(1)); err == nil {
		t.Fatal("nil evaluator accepted")
	}
}

type failEval struct{}

func (failEval) MeasureWorkflow(cfgspace.Config) (float64, error) {
	return 0, fmt.Errorf("boom")
}
func (failEval) MeasureComponent(int, cfgspace.Config) (float64, error) {
	return 0, fmt.Errorf("boom")
}
