package worker

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/live"
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
	p := live.NewProblem(b, workflow.CompTime, testPool, testSeed)
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
	p := live.NewProblem(b, workflow.CompTime, 8, testSeed)
	rng := rand.New(rand.NewPCG(3, 3))
	sub := b.Components[0].Space.SampleN(rng, 1)[0]

	batch := []dispatch.Item{
		{Seq: 0, Kind: dispatch.KindWorkflow, Cfg: p.Pool[0]},
		{Seq: 1, Kind: dispatch.KindWorkflow, Cfg: p.Pool[1]},
		{Seq: 2, Kind: dispatch.KindComponent, Component: 0, Cfg: sub},
	}
	loaded := testJob().Under(cluster.Load{MemoryContention: 1.5, ComputeSlowdown: 2, LatencyFactor: 1})
	for _, job := range []dispatch.Job{testJob(), loaded} {
		ev, err := live.NewEvaluator(job)
		if err != nil {
			t.Fatal(err)
		}
		r := dispatch.NewRemote([]string{url}, job)
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
				t.Fatalf("load %v, item %d: remote %v != direct %v", job.Load, i, vals[i], want)
			}
		}
	}
}

// TestMeasureEndpointRejectsBadLoad: a load with a negative intensity, or
// one under which a measurement is not finite, is refused with a 400
// carrying ErrBadLoad's message and counted as an error, and the worker goes
// on serving.
func TestMeasureEndpointRejectsBadLoad(t *testing.T) {
	url := newWorker(t, 1)
	for _, body := range []string{negativeLoadBody, hugeLoadBody} {
		status, reply := postMeasure(t, url, body)
		if status != http.StatusBadRequest || !strings.Contains(reply.Error, ErrBadLoad.Error()) {
			t.Fatalf("%s: status %d, reply %+v; want 400 with %q", body, status, reply, ErrBadLoad)
		}
	}
	if status, reply := postMeasure(t, url, loadedBody); status != http.StatusOK || len(reply.Results) != 1 {
		t.Fatalf("loaded request after the refused ones: status %d, reply %+v", status, reply)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "ceal_worker_errors_total 2\n") {
		t.Fatalf("the refusals are not counted:\n%s", metrics)
	}
}

func TestMeasureEndpointRejectsBadJobs(t *testing.T) {
	url := newWorker(t, 1)
	for name, job := range map[string]dispatch.Job{
		"unknown benchmark": {Benchmark: "NOPE", Objective: "comp", Seed: 1},
		"unknown objective": {Benchmark: "LV", Objective: "sideways", Seed: 1},
	} {
		r := dispatch.NewRemote([]string{url}, job)
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

// malformedItemBody is a well-formed request whose one item carries a
// one-parameter configuration for LAMMPS (three parameters). It used to
// reach apps.NewLAMMPS unchecked and panic on a dispatch pool goroutine,
// which net/http's per-request recover does not cover — killing the daemon.
const malformedItemBody = `{"benchmark":"LV","objective":"comp","seed":1,"items":[{"seq":0,"kind":"component","component":0,"cfg":[1]}]}`

// loadedBody measures one component under a platform condition;
// negativeLoadBody is the same request with a negative intensity, and
// hugeLoadBody a workflow under a fabric so congested it never delivers.
const (
	loadedBody       = `{"benchmark":"LV","objective":"comp","seed":1,"load":{"fabric_contention":1.5,"compute_slowdown":2},"items":[{"seq":0,"kind":"component","component":0,"cfg":[18,18,2]}]}`
	negativeLoadBody = `{"benchmark":"LV","objective":"comp","seed":1,"load":{"fabric_contention":1.5,"compute_slowdown":-2},"items":[{"seq":0,"kind":"component","component":0,"cfg":[18,18,2]}]}`
	hugeLoadBody     = `{"benchmark":"LV","objective":"comp","seed":1,"load":{"fabric_contention":1e308,"memory_contention":1e308},"items":[{"seq":0,"kind":"workflow","cfg":[18,18,2,18,18,2]}]}`
)

func postMeasure(t *testing.T, url, body string) (int, dispatch.MeasureResponse) {
	t.Helper()
	resp, err := http.Post(url+dispatch.MeasurePath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply dispatch.MeasureResponse
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("reply (status %d) is not JSON: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, reply
}

func TestMeasureEndpointSurvivesMalformedItem(t *testing.T) {
	url := newWorker(t, 2)
	status, reply := postMeasure(t, url, malformedItemBody)
	if status != http.StatusBadRequest || reply.Error == "" {
		t.Fatalf("malformed item: status %d, reply %+v; want 400 with an error", status, reply)
	}

	// The same server must still answer a valid request correctly.
	b, err := workflow.ByName(cluster.Default(), "LV")
	if err != nil {
		t.Fatal(err)
	}
	ev := &live.Evaluator{Bench: b, Obj: workflow.CompTime, Seed: 1}
	want, err := ev.MeasureComponent(0, []int{18, 18, 2})
	if err != nil {
		t.Fatal(err)
	}
	status, reply = postMeasure(t, url, `{"benchmark":"LV","objective":"comp","seed":1,"items":[{"seq":0,"kind":"component","component":0,"cfg":[18,18,2]}]}`)
	if status != http.StatusOK || len(reply.Results) != 1 || reply.Results[0].Value != want {
		t.Fatalf("valid request after the malformed one: status %d, reply %+v; want value %v", status, reply, want)
	}
}

// TestMeasureEndpointKeepsNothingPerJob: a job identity comes off the wire
// and every run has its own seed, so a worker that kept anything per job
// would grow with every run it ever served. The same shard is answered the
// same way twice, and after shards for 1 000 distinct seeds no Server field
// holds an entry.
func TestMeasureEndpointKeepsNothingPerJob(t *testing.T) {
	srv := NewServer(1)
	post := func(seed int) string {
		body := fmt.Sprintf(`{"benchmark":"GP","objective":"exec","seed":%d,"items":[{"seq":0,"kind":"component","component":3}]}`, seed)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, dispatch.MeasurePath, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	if first, again := post(1), post(1); first != again {
		t.Fatalf("repeated job answered differently:\n%s\n%s", first, again)
	}
	for seed := 2; seed <= 1000; seed++ {
		post(seed)
	}
	v := reflect.ValueOf(srv).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); (f.Kind() == reflect.Map || f.Kind() == reflect.Slice) && f.Len() > 0 {
			t.Errorf("Server.%s holds %d entries after 1000 jobs", v.Type().Field(i).Name, f.Len())
		}
	}
}

// FuzzMeasureHandler feeds arbitrary bytes to POST /v1/measure: whatever
// the body, the handler must not panic (on its own goroutine or a pool
// one) and must answer JSON with one of its four documented statuses.
func FuzzMeasureHandler(f *testing.F) {
	for _, body := range []string{
		malformedItemBody,
		// nil cfg for a configurable component
		`{"benchmark":"LV","objective":"comp","seed":1,"items":[{"seq":0,"kind":"component","component":0}]}`,
		// zero processes-per-node
		`{"benchmark":"LV","objective":"exec","seed":1,"items":[{"seq":0,"kind":"component","component":0,"cfg":[18,0,2]},{"seq":1,"kind":"workflow","cfg":[18,0,2,18,18,2]}]}`,
		// component index out of range, both ways
		`{"benchmark":"HS","objective":"comp","seed":1,"items":[{"seq":0,"kind":"component","component":99,"cfg":[1]},{"seq":1,"kind":"component","component":-1}]}`,
		// a valid shard
		`{"benchmark":"LV","objective":"comp","seed":1,"items":[{"seq":0,"kind":"component","component":0,"cfg":[18,18,2]},{"seq":1,"kind":"workflow","cfg":[18,18,2,18,18,2]}]}`,
		`{"benchmark":"GP","objective":"energy","seed":7,"items":[{"seq":3,"kind":"sideways"}]}`,
		loadedBody,
		negativeLoadBody,
		hugeLoadBody,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	srv := NewServer(2)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, dispatch.MeasurePath, strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusInternalServerError:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var reply dispatch.MeasureResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("status %d reply is not JSON (%v): %q", rec.Code, err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK && reply.Error == "" {
			t.Fatalf("status %d without an error message: %q", rec.Code, rec.Body.Bytes())
		}
	})
}
