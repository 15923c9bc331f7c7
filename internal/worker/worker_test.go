package worker

import (
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/live"
	"ceal/internal/paperexp"
	"ceal/internal/workflow"
)

const (
	testBenchmark = "LV"
	testPool      = 60
	testSeed      = 5
	testBudget    = 12
)

func testJob() dispatch.Job {
	return dispatch.Job{Benchmark: testBenchmark, Objective: "comp", Seed: testSeed}
}

// tuneResult runs the reference tuning spec with the given dispatcher (nil:
// the classic in-process path) and returns the Result's canonical JSON.
func tuneResult(t *testing.T, d dispatch.Dispatcher) []byte {
	t.Helper()
	b, err := workflow.ByName(cluster.Default(), testBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	p := live.NewProblem(b, paperexp.CompTime, testPool, testSeed)
	p.Dispatcher = d
	alg, err := live.AlgorithmByName("ceal")
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Tune(p, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newWorker(t *testing.T, width int) string {
	t.Helper()
	ts := httptest.NewServer(NewServer(width))
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestMeasureEndpointMatchesDirectEvaluation(t *testing.T) {
	url := newWorker(t, 2)
	b, err := workflow.ByName(cluster.Default(), testBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	ev := &live.Evaluator{Bench: b, Obj: paperexp.CompTime, Seed: testSeed}
	p := live.NewProblem(b, paperexp.CompTime, 8, testSeed)
	rng := rand.New(rand.NewPCG(3, 3))
	sub := b.Components[0].Space.SampleN(rng, 1)[0]

	batch := []dispatch.Item{
		{Seq: 0, Kind: dispatch.KindWorkflow, Cfg: p.Pool[0]},
		{Seq: 1, Kind: dispatch.KindWorkflow, Cfg: p.Pool[1]},
		{Seq: 2, Kind: dispatch.KindComponent, Component: 0, Cfg: sub},
	}
	r := dispatch.NewRemote([]string{url}, testJob())
	ms, err := r.Dispatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := dispatch.ByIndex(batch, ms)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range batch {
		var want float64
		if it.Kind == dispatch.KindWorkflow {
			want, err = ev.MeasureWorkflow(it.Cfg)
		} else {
			want, err = ev.MeasureComponent(it.Component, it.Cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if vals[i] != want {
			t.Fatalf("item %d: remote %v != direct %v", i, vals[i], want)
		}
	}
}

func TestMeasureEndpointRejectsBadJobs(t *testing.T) {
	url := newWorker(t, 1)
	for name, job := range map[string]dispatch.Job{
		"unknown benchmark": {Benchmark: "NOPE", Objective: "comp", Seed: 1},
		"unknown objective": {Benchmark: "LV", Objective: "sideways", Seed: 1},
	} {
		r := dispatch.NewRemote([]string{url}, job)
		r.MaxRetries = 1
		if _, err := r.Dispatch(context.Background(), []dispatch.Item{{Seq: 0, Kind: dispatch.KindWorkflow, Cfg: []int{1}}}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestMeasureEndpointRejectsOversizedBody(t *testing.T) {
	url := newWorker(t, 1)
	body := `{"benchmark":"` + strings.Repeat("L", maxRequestBytes) + `"}`
	resp, err := http.Post(url+dispatch.MeasurePath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized shard: POST = %d, want 413", resp.StatusCode)
	}
	var reply dispatch.MeasureResponse
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || reply.Error == "" {
		t.Fatalf("413 reply is not a JSON error: %+v, %v", reply, err)
	}
}

// TestRemoteTuningByteIdenticalToLocal is the measurement plane's core
// acceptance property: the same tuning spec produces a JSON-identical
// Result through the in-process path and through remote dispatch at 1, 2,
// and 4 workers — the collector memoizes by configuration, not by who
// measured it.
func TestRemoteTuningByteIdenticalToLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning runs")
	}
	want := tuneResult(t, nil)

	urls := []string{newWorker(t, 1), newWorker(t, 2), newWorker(t, 1), newWorker(t, 2)}
	for _, n := range []int{1, 2, 4} {
		r := dispatch.NewRemote(urls[:n], testJob())
		if got := tuneResult(t, r); string(got) != string(want) {
			t.Fatalf("remote dispatch with %d workers diverged from in-process result", n)
		}
	}
}

// TestRemoteTuningSurvivesWorkerKill kills one of two workers mid-run (its
// listener hard-closes after the first shard) and asserts the run still
// completes with the identical Result: the lost worker's shards are
// reassigned to the survivor.
func TestRemoteTuningSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning runs")
	}
	want := tuneResult(t, nil)

	healthy := newWorker(t, 2)

	// A real TCP server we can hard-close after its first response:
	// later connections are refused, exactly like a killed daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Uint64
	inner := NewServer(1)
	doomed := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		served.Add(1)
	})}
	go func() { _ = doomed.Serve(ln) }()
	t.Cleanup(func() { _ = doomed.Close() })
	var killed atomic.Bool
	kill := func() {
		if killed.CompareAndSwap(false, true) {
			_ = doomed.Close()
		}
	}

	r := dispatch.NewRemote([]string{healthy, "http://" + ln.Addr().String()}, testJob())
	r.MaxRetries = 4
	// Wrap the client to kill the doomed worker after it has answered once.
	base := http.DefaultTransport
	r.Client = &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if served.Load() >= 1 {
			kill()
		}
		return base.RoundTrip(req)
	})}

	got := tuneResult(t, r)
	if string(got) != string(want) {
		t.Fatal("result diverged after mid-run worker kill")
	}
	if !killed.Load() && served.Load() == 0 {
		t.Log("doomed worker never served a shard (batch too small to shard); kill path unexercised")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestHealthzAndMetrics(t *testing.T) {
	url := newWorker(t, 3)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ceal_worker_requests_total") {
		t.Fatalf("metrics missing worker counters:\n%s", sb.String())
	}
}
