package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

func newTestServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(opts)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func doDelete(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// normalizeDurations zeroes the wall-clock duration_ns member of traced
// model_trained events: the direct and served runs train the same models
// but cannot share a clock, so byte-identity is asserted on everything
// except that one timing field.
var durationNS = regexp.MustCompile(`"duration_ns":[0-9]+`)

func normalizeDurations(b []byte) []byte {
	return durationNS.ReplaceAll(b, []byte(`"duration_ns":0`))
}

// pollDone polls GET /v1/runs/{id} until the run reaches a terminal state.
func pollDone(t *testing.T, ts *httptest.Server, id string) *histdb.RunRecord {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var rec histdb.RunRecord
		if code := getJSON(t, ts.URL+"/v1/runs/"+id, &rec); code != http.StatusOK {
			t.Fatalf("GET %s = %d", id, code)
		}
		if rec.State.Terminal() {
			return &rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s", id, rec.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerResultIdenticalToDirectTune is the service's core contract: a
// run submitted over HTTP yields the same Result, byte for byte, as calling
// Tune directly on the same spec, and its streamed event trace matches an
// events.Recorder attached to the direct run.
func TestServerResultIdenticalToDirectTune(t *testing.T) {
	spec := JobSpec{Benchmark: "LV", Algorithm: "ceal", Objective: "comp", Budget: 12, Pool: 60, Seed: 5}

	// Direct run with a recorder observer.
	p, alg, err := BuildSpec(spec.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	var recd events.Recorder
	p.Observer = &recd
	direct, err := alg.Tune(p, spec.Budget)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	// Same spec through the HTTP API.
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/runs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		histdb.RunRecord
		Deduped bool `json:"deduped"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Deduped {
		t.Fatal("fresh submission flagged deduped")
	}
	rec := pollDone(t, ts, sub.ID)
	if rec.State != histdb.StateDone {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}

	servedJSON, err := json.Marshal(rec.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directJSON, servedJSON) {
		t.Fatalf("served result differs from direct Tune:\ndirect: %s\nserved: %s", directJSON, servedJSON)
	}

	// The JSONL stream must be byte-identical to the recorder's trace.
	var want bytes.Buffer
	for _, ev := range recd.Events() {
		line, err := events.MarshalJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	httpResp, err := http.Get(ts.URL + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := httpResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	wantNorm := normalizeDurations(want.Bytes())
	if !bytes.Equal(wantNorm, normalizeDurations(got)) {
		t.Fatalf("event stream differs from recorder trace:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
	}

	// The same stream framed as SSE.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+sub.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	sseResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse, err := io.ReadAll(sseResp.Body)
	sseResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content-type = %q", ct)
	}
	var wantSSE bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSuffix(wantNorm, []byte("\n")), []byte("\n")) {
		fmt.Fprintf(&wantSSE, "data: %s\n\n", line)
	}
	if !bytes.Equal(wantSSE.Bytes(), normalizeDurations(sse)) {
		t.Fatalf("SSE stream mismatch:\nwant:\n%s\ngot:\n%s", wantSSE.Bytes(), sse)
	}

	// Resubmitting the identical spec: 200, deduped, same run, same bytes.
	resp2, body2 := postJSON(t, ts.URL+"/v1/runs", spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d", resp2.StatusCode)
	}
	var sub2 struct {
		histdb.RunRecord
		Deduped bool `json:"deduped"`
	}
	if err := json.Unmarshal(body2, &sub2); err != nil {
		t.Fatal(err)
	}
	if !sub2.Deduped || sub2.ID != sub.ID {
		t.Fatalf("resubmit deduped=%v id=%s, want true/%s", sub2.Deduped, sub2.ID, sub.ID)
	}
	reJSON, _ := json.Marshal(sub2.Result)
	if !bytes.Equal(directJSON, reJSON) {
		t.Fatal("deduped result differs from direct Tune")
	}
}

func TestServerConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueLimit: 16})
	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := JobSpec{Benchmark: "LV", Algorithm: "rs", Objective: "comp", Budget: 5, Pool: 30, Seed: uint64(i + 1)}
			data, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("seed %d: POST = %d", i+1, resp.StatusCode)
				return
			}
			var rec histdb.RunRecord
			if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
				errs <- err
				return
			}
			ids[i] = rec.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate run ID %s", id)
		}
		seen[id] = true
		if rec := pollDone(t, ts, id); rec.State != histdb.StateDone {
			t.Fatalf("run %s = %s (%s)", id, rec.State, rec.Error)
		}
	}
	var list struct {
		Runs []struct {
			ID        string          `json:"id"`
			State     histdb.RunState `json:"state"`
			BestValue *float64        `json:"best_value"`
		} `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/v1/runs", &list); code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	if len(list.Runs) != n {
		t.Fatalf("list has %d runs, want %d", len(list.Runs), n)
	}
	for _, it := range list.Runs {
		if it.State != histdb.StateDone || it.BestValue == nil {
			t.Fatalf("list item %+v", it)
		}
	}
}

// TestServerDeleteCancelsWithinOneBatch follows the live SSE-style stream
// until the run is demonstrably mid-batch, cancels it over HTTP, and checks
// the run terminates promptly instead of finishing its measurements.
func TestServerDeleteCancelsWithinOneBatch(t *testing.T) {
	// ~40 measurements × 10ms ≈ 400ms if left alone.
	spec := JobSpec{Benchmark: "LV", Algorithm: "rs", Objective: "comp", Budget: 40, Pool: 100, Seed: 3}
	_, ts := newTestServer(t, Options{Workers: 1, Build: slowBuild(10 * time.Millisecond)})

	resp, body := postJSON(t, ts.URL+"/v1/runs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var sub histdb.RunRecord
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	// Follow the live trace until the batch has started measuring.
	stream, err := http.Get(ts.URL + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	sawBatch := false
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"event":"batch_selected"`) {
			sawBatch = true
			break
		}
	}
	if !sawBatch {
		t.Fatalf("stream ended without batch_selected (err %v)", sc.Err())
	}

	start := time.Now()
	code, _ := doDelete(t, ts.URL+"/v1/runs/"+sub.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	rec := pollDone(t, ts, sub.ID)
	elapsed := time.Since(start)
	if rec.State != histdb.StateCancelled {
		t.Fatalf("state = %s", rec.State)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("cancel took %v, batch would have run ~400ms", elapsed)
	}
	// The interrupted stream must also terminate now that the hub is closed.
	drainDone := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(drainDone)
	}()
	select {
	case <-drainDone:
	case <-time.After(5 * time.Second):
		t.Fatal("event stream still open after cancellation")
	}

	// Cancelling a finished run conflicts.
	if code, _ := doDelete(t, ts.URL+"/v1/runs/"+sub.ID); code != http.StatusConflict {
		t.Fatalf("second DELETE = %d, want 409", code)
	}
}

func TestServerStorePersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	spec := JobSpec{Benchmark: "HS", Algorithm: "rs", Objective: "exec", Budget: 5, Pool: 30, Seed: 2}

	st1, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Options{Workers: 1, Store: st1})
	ts1 := httptest.NewServer(NewServer(m1))
	resp, body := postJSON(t, ts1.URL+"/v1/runs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var sub histdb.RunRecord
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	first := pollDone(t, ts1, sub.ID)
	if first.State != histdb.StateDone {
		t.Fatalf("state = %s (%s)", first.State, first.Error)
	}
	firstJSON, _ := json.Marshal(first.Result)
	ts1.Close()
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart on the same store file: the run is still there, resubmission
	// dedupes against it, and new runs get fresh IDs.
	st2, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Workers: 1, Store: st2})
	var reloaded histdb.RunRecord
	if code := getJSON(t, ts2.URL+"/v1/runs/"+sub.ID, &reloaded); code != http.StatusOK {
		t.Fatalf("GET after restart = %d", code)
	}
	reloadedJSON, _ := json.Marshal(reloaded.Result)
	if !bytes.Equal(firstJSON, reloadedJSON) {
		t.Fatal("result changed across restart")
	}
	if len(reloaded.Trace) == 0 {
		t.Fatal("trace lost across restart")
	}
	resp2, body2 := postJSON(t, ts2.URL+"/v1/runs", spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit after restart = %d: %s", resp2.StatusCode, body2)
	}
	var sub2 struct {
		histdb.RunRecord
		Deduped bool `json:"deduped"`
	}
	if err := json.Unmarshal(body2, &sub2); err != nil {
		t.Fatal(err)
	}
	if !sub2.Deduped || sub2.ID != sub.ID {
		t.Fatalf("restart dedup = %v/%s, want true/%s", sub2.Deduped, sub2.ID, sub.ID)
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	if code := getJSON(t, ts.URL+"/v1/runs/run-999999", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown = %d", code)
	}
	if code, _ := doDelete(t, ts.URL+"/v1/runs/run-999999"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/run-999999/events", nil); code != http.StatusNotFound {
		t.Fatalf("events unknown = %d", code)
	}
	for name, body := range map[string]string{
		"malformed json":    `{`,
		"unknown field":     `{"benchmark":"LV","typo":1}`,
		"unknown benchmark": `{"benchmark":"XX"}`,
		"bad algorithm":     `{"benchmark":"LV","algorithm":"annealing"}`,
		"removed algorithm": `{"benchmark":"LV","algorithm":"bo"}`,
		"negative budget":   `{"benchmark":"LV","budget":-5}`,
		"oversized pool":    `{"benchmark":"LV","pool":2000000000}`,
		"oversized budget":  `{"benchmark":"LV","budget":2000000000}`,
		"oversized workers": `{"benchmark":"LV","workers":2000000000}`,
		"oversized probes":  `{"benchmark":"LV","mode":"continuous","probes":2000000000}`,
		"unknown mode":      `{"benchmark":"LV","mode":"forever"}`,
		"unknown profile":   `{"benchmark":"LV","mode":"continuous","drift":"tsunami"}`,
		"continuous warm":   `{"benchmark":"LV","mode":"continuous","warm_start":true}`,
		// Dedup-join is what a tune spec always gets and a continuous one
		// never does; there is no field to ask for it.
		"dedup field": `{"benchmark":"LV","budget":8,"pool":40,"dedup":true}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: POST = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestServerRejectsOversizedSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"benchmark":"` + strings.Repeat("L", maxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: POST = %d, want 413", resp.StatusCode)
	}
	var reply map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || reply["error"] == "" {
		t.Fatalf("413 reply is not a JSON error: %v, %v", reply, err)
	}
}

func TestServerQueueFullAndHealth(t *testing.T) {
	gate := make(chan struct{})
	m, ts := newTestServer(t, Options{
		Workers:    1,
		QueueLimit: 1,
		Build: func(spec JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			<-gate
			return BuildSpec(spec)
		},
	})
	defer close(gate)

	resp, body := postJSON(t, ts.URL+"/v1/runs", tinySpec(1))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit = %d (%s)", resp.StatusCode, body)
	}
	var first histdb.RunRecord
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	// Once the worker holds the first run (parked in the gated Build), the
	// second fills the queue and the third is turned away.
	waitRunning(t, m, first.ID)
	if resp, body := postJSON(t, ts.URL+"/v1/runs", tinySpec(2)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second submit = %d (%s)", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/runs", tinySpec(3)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}

	var health struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		Workers    int    `json:"workers"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Workers != 1 || health.QueueDepth != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"ceal_runs_submitted_total 2\n",
		"ceal_queue_depth 1\n",
		"ceal_workers 1\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServerShutdownCancelsStreams exercises the drain path the daemon
// relies on: Manager.Shutdown must end live event streams so the HTTP
// server can close without waiting out its deadline.
func TestServerShutdownCancelsStreams(t *testing.T) {
	spec := JobSpec{Benchmark: "LV", Algorithm: "rs", Objective: "comp", Budget: 40, Pool: 100, Seed: 6}
	m := NewManager(Options{Workers: 1, Build: slowBuild(10 * time.Millisecond)})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/runs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var sub histdb.RunRecord
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(ts.URL + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() { // wait until the run is live
		t.Fatalf("no first event: %v", sc.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	drainDone := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(drainDone)
	}()
	select {
	case <-drainDone:
	case <-time.After(5 * time.Second):
		t.Fatal("event stream survived Shutdown")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
	var rec histdb.RunRecord
	if code := getJSON(t, ts.URL+"/v1/runs/"+sub.ID, &rec); code != http.StatusOK {
		t.Fatalf("GET after shutdown = %d", code)
	}
	if rec.State != histdb.StateCancelled {
		t.Fatalf("run = %s after shutdown", rec.State)
	}
}
