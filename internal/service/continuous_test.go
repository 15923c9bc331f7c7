package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
	"ceal/internal/worker"
)

// contSpec is a continuous-mode spec small enough for test-speed runs whose
// step drift still lands inside the monitoring window.
func contSpec() JobSpec {
	return JobSpec{
		Benchmark: "LV", Algorithm: "ceal", Objective: "comp",
		Budget: 12, Pool: 60, Seed: 1,
		Mode: histdb.ModeContinuous, Drift: "step", Probes: 60,
	}
}

// TestServerContinuousRunStreamsDriftEvents is the serve-surface acceptance
// criterion: a continuous run under a step profile streams drift_confirmed
// followed by reconverged, finishes with a continuous summary, dedupes like
// any run, and — done — has nothing left to resume.
func TestServerContinuousRunStreamsDriftEvents(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/runs", contSpec())
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
	rec := pollDone(t, ts, sub.ID)
	if rec.State != histdb.StateDone {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}
	if rec.Continuous == nil {
		t.Fatal("done continuous run has no continuous summary")
	}
	if rec.Continuous.Retunes+rec.Continuous.Switchbacks == 0 {
		t.Fatal("step profile triggered no reaction (no retunes or switchbacks)")
	}
	if rec.Result == nil {
		t.Fatal("continuous record carries no final tuning result")
	}

	// The persisted trace (and hence the SSE replay) must show the
	// continuous sequence: a confirmed drift, then a reconvergence after it.
	confirmedAt, reconvergedAt := -1, -1
	for i, line := range rec.Trace {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		switch ev.Event {
		case "drift_confirmed":
			if confirmedAt < 0 {
				confirmedAt = i
			}
		case "reconverged":
			if reconvergedAt < 0 {
				reconvergedAt = i
			}
		}
	}
	if confirmedAt < 0 || reconvergedAt < 0 || reconvergedAt < confirmedAt {
		t.Fatalf("trace lacks drift_confirmed -> reconverged sequence (confirmed at %d, reconverged at %d)",
			confirmedAt, reconvergedAt)
	}

	// The SSE endpoint replays the same lines.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+sub.ID+"/events?follow=false", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, sresp.Body); err != nil {
		t.Fatal(err)
	}
	stream := buf.String()
	ci := strings.Index(stream, `"event":"drift_confirmed"`)
	ri := strings.LastIndex(stream, `"event":"reconverged"`)
	if ci < 0 || ri < 0 || ri < ci {
		t.Fatalf("SSE stream lacks drift_confirmed -> reconverged (at %d, %d)", ci, ri)
	}

	// Identical continuous spec: served from the store — the same run, the
	// same bytes.
	resp2, body2 := postJSON(t, ts.URL+"/v1/runs", contSpec())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second continuous POST = %d, want 200 (deduped): %s", resp2.StatusCode, body2)
	}
	var sub2 struct {
		histdb.RunRecord
		Deduped bool `json:"deduped"`
	}
	if err := json.Unmarshal(body2, &sub2); err != nil {
		t.Fatal(err)
	}
	if !sub2.Deduped || sub2.ID != sub.ID {
		t.Fatalf("continuous resubmission deduped=%v id=%s, want true/%s", sub2.Deduped, sub2.ID, sub.ID)
	}
	if got, want := summaryJSON(t, &sub2.RunRecord), summaryJSON(t, rec); got != want {
		t.Fatalf("deduped session differs from the run it names:\n got %s\nwant %s", got, want)
	}

	// A completed session is as unresumable as any completed run.
	rresp, rbody := postJSON(t, ts.URL+"/v1/runs/"+sub.ID+"/resume", nil)
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("resume of continuous run = %d, want 409: %s", rresp.StatusCode, rbody)
	}
}

func TestSpecKeyContinuousExtension(t *testing.T) {
	tune := JobSpec{Benchmark: "LV", Budget: 12, Pool: 60, Seed: 1}
	if k := tune.Key(); strings.Contains(k, "continuous") {
		t.Fatalf("tune key %q mentions continuous", k)
	}
	cont := contSpec()
	k := cont.Key()
	if !strings.Contains(k, "/continuous/step/pr60") {
		t.Fatalf("continuous key %q lacks mode extension", k)
	}
	if fk := cont.FamilyKey(); !strings.HasSuffix(fk, "/continuous") {
		t.Fatalf("continuous family key %q does not isolate the mode", fk)
	}
	// The constant profile's spellings are one session, so one key.
	for _, alias := range []string{"", "none", "constant", " Constant "} {
		a, b := contSpec(), contSpec()
		a.Drift, b.Drift = alias, "none"
		if a.Key() != b.Key() {
			t.Fatalf("drift %q keys %q, drift none %q", alias, a.Key(), b.Key())
		}
	}
	// Drift knobs on a tune spec are cleared by Normalize, keeping legacy
	// keys stable.
	noisy := JobSpec{Benchmark: "LV", Budget: 12, Pool: 60, Seed: 1, Drift: "step", Probes: 99}
	if noisy.Key() != tune.Key() {
		t.Fatalf("tune key unstable under stray drift fields: %q vs %q", noisy.Key(), tune.Key())
	}
}

// TestContinuousJobMatchesDirectRun: a served continuous run is the run
// BuildSpec's driver produces when called directly. The manager asks for
// the problem's collector (preload, stats, live gauges) before the driver
// runs; were that collector bound to anything but the drift environment,
// the session would measure an undrifted platform off the virtual clock
// and the served result silently diverge from the direct one.
func TestContinuousJobMatchesDirectRun(t *testing.T) {
	_, alg, err := BuildSpec(contSpec())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := alg.(*tuner.Continuous).Run(contSpec().Budget)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	rec, _, err := m.Submit(contSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(context.Background(), rec.ID); err != nil {
		t.Fatal(err)
	}
	rec, _ = m.Get(rec.ID)
	if rec.State != histdb.StateDone {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}
	got, err := json.Marshal(rec.Continuous)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("served continuous result diverged from the direct run:\n got %s\nwant %s", got, want)
	}
	if rec.Collector.Misses == 0 {
		t.Fatalf("collector stats not folded across epochs: %+v", rec.Collector)
	}
}

// TestContinuousJobComposesInjectedObserver: an observer a Build hook puts
// on the session's problem keeps receiving the continuous-mode events next
// to the run's hub — the one composition runJob does for every run kind.
func TestContinuousJobComposesInjectedObserver(t *testing.T) {
	rec := events.NewRecorder()
	m := NewManager(Options{Workers: 1, Build: func(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
		p, alg, err := BuildSpec(s)
		if err == nil {
			p.Observer = rec
		}
		return p, alg, err
	}})
	defer m.Shutdown(context.Background())
	run, _, err := m.Submit(contSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(context.Background(), run.ID); err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, e := range rec.Events() {
		if _, ok := e.(*events.ProbeMeasured); ok {
			probes++
		}
	}
	if probes == 0 {
		t.Fatal("injected observer saw no probe_measured events")
	}
	run, _ = m.Get(run.ID)
	trace, err := json.Marshal(run.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"event":"probe_measured"`) {
		t.Fatal("the run's own trace lost its probe_measured events")
	}
}

// TestContinuousSubmitJoinsInFlightSession: an identical continuous spec
// posted while the first is still queued joins it — 200, deduped, the same
// ID — and posted once it is done is served the same record's bytes.
func TestContinuousSubmitJoinsInFlightSession(t *testing.T) {
	release := make(chan struct{})
	m, ts := newTestServer(t, Options{Workers: 1, Build: func(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
		<-release
		return BuildSpec(s)
	}})
	post := func() (int, *histdb.RunRecord, bool) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/runs", contSpec())
		var sub struct {
			histdb.RunRecord
			Deduped bool `json:"deduped"`
		}
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &sub.RunRecord, sub.Deduped
	}
	code, first, _ := post()
	if code != http.StatusCreated {
		t.Fatalf("first POST = %d", code)
	}
	if code, joined, deduped := post(); code != http.StatusOK || !deduped || joined.ID != first.ID {
		t.Fatalf("in-flight resubmission: %d deduped=%v id=%s, want 200/true/%s", code, deduped, joined.ID, first.ID)
	}
	close(release)
	done := pollDone(t, ts, first.ID)
	code, stored, deduped := post()
	if code != http.StatusOK || !deduped || stored.ID != first.ID {
		t.Fatalf("stored resubmission: %d deduped=%v id=%s, want 200/true/%s", code, deduped, stored.ID, first.ID)
	}
	if got, want := summaryJSON(t, stored), summaryJSON(t, done); got != want {
		t.Fatalf("deduped session differs from the run it names:\n got %s\nwant %s", got, want)
	}
	if mt := m.Metrics(); mt.Deduped != 2 || mt.Started != 1 {
		t.Fatalf("metrics %+v, want 2 deduped submissions of 1 started run", mt)
	}
}

// summaryJSON is a done continuous record's session summary and final
// result as JSON — what two runs of one session must agree on.
func summaryJSON(t *testing.T, rec *histdb.RunRecord) string {
	t.Helper()
	if rec.State != histdb.StateDone || rec.Continuous == nil {
		t.Fatalf("run %s: state %s (%s), continuous %v", rec.ID, rec.State, rec.Error, rec.Continuous)
	}
	return resultJSON(t, rec.Continuous, rec.Result)
}

// resultJSON is a session's summary and final result as JSON.
func resultJSON(t *testing.T, cont *tuner.ContinuousResult, res *tuner.Result) string {
	t.Helper()
	c, err := json.Marshal(cont)
	if err != nil {
		t.Fatal(err)
	}
	r, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s\n%s", c, r)
}

// sessionJSON builds spec's session with build, puts obs on its problem,
// runs it, and returns the summary and final result as JSON together with
// the problem.
func sessionJSON(t *testing.T, build func(JobSpec) (*tuner.Problem, tuner.Algorithm, error), spec JobSpec, obs events.Observer) (string, *tuner.Problem) {
	t.Helper()
	p, alg, err := build(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.Observer = obs
	res, err := alg.Tune(p, spec.Normalize().Budget)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, res.Continuous, res), p
}

// newWorker starts a ceal-worker engine of the given width.
func newWorker(t *testing.T, width int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(worker.NewServer(width))
	t.Cleanup(ts.Close)
	return ts
}

// workerItems reads a worker's ceal_worker_items_total off its /metrics.
func workerItems(t *testing.T, url string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var n float64
		if _, err := fmt.Sscanf(sc.Text(), "ceal_worker_items_total %g", &n); err == nil {
			return n
		}
	}
	t.Fatalf("%s/metrics has no ceal_worker_items_total", url)
	return 0
}

// TestRemoteContinuousMatchesInProcess: a session built by BuildSpecRemote
// measures its batches, probes and peeks on ceal-worker daemons, each job
// carrying the platform condition it measures under, and ends with the
// summary and final result of the in-process session at any width.
func TestRemoteContinuousMatchesInProcess(t *testing.T) {
	for _, workers := range []int{1, 2} {
		spec := contSpec()
		spec.Workers = workers
		want, _ := sessionJSON(t, BuildSpec, spec, nil)
		urls := []string{newWorker(t, 1).URL, newWorker(t, 2).URL}
		if got, _ := sessionJSON(t, BuildSpecRemote(urls), spec, nil); got != want {
			t.Fatalf("workers=%d: remote session differs from in-process:\n got %s\nwant %s", workers, got, want)
		}
		for _, url := range urls {
			if n := workerItems(t, url); n <= 0 {
				t.Fatalf("workers=%d: worker %s measured %g items", workers, url, n)
			}
		}
	}
}

// TestRemoteContinuousSurvivesWorkerKill: one of a session's two workers
// dies at the first monitoring probe. The shards meant for it afterwards —
// the re-exploration's among them — are re-posted to the survivor, so the
// session ends as it does in-process, with the resends counted.
func TestRemoteContinuousSurvivesWorkerKill(t *testing.T) {
	want, _ := sessionJSON(t, BuildSpec, contSpec(), nil)
	healthy, doomed := newWorker(t, 1), newWorker(t, 1)
	kill := &cancelAt{kind: "probe", k: 1, cancel: doomed.Close}
	got, p := sessionJSON(t, BuildSpecRemote([]string{healthy.URL, doomed.URL}), contSpec(), kill)
	if kill.seen == 0 {
		t.Fatal("the session never probed; the kill never happened")
	}
	if got != want {
		t.Fatalf("session diverged after a worker kill:\n got %s\nwant %s", got, want)
	}
	if st := p.Collector().Stats(); st.Retries == 0 || st.DispatchRetries == 0 {
		t.Fatalf("no resends counted after the kill: %+v", st)
	}
}

// cancelAt cancels its run from inside the event stream, the way a signal
// would, as soon as it has seen the k-th event of one kind. It fires once:
// the resumed run passes the same point undisturbed.
type cancelAt struct {
	kind   string // "probe" or "batch"
	k      int
	cancel func()
	seen   int
}

func (c *cancelAt) OnEvent(e events.Event) {
	switch e.(type) {
	case *events.ProbeMeasured:
		if c.kind != "probe" {
			return
		}
	case *events.BatchMeasured:
		if c.kind != "batch" {
			return
		}
	default:
		return
	}
	if c.seen++; c.seen == c.k {
		c.cancel()
	}
}

// TestContinuousResumeIdentical is the one-run-kind acceptance check: a
// served continuous session cancelled at any point — in the initial epoch
// (batches 1–7 of contSpec), while monitoring (probes 1–27), inside the
// re-exploration probe 27 confirms (batches 8–10) or after it — and resumed
// finishes with the summary, final result and collector counters of the
// uninterrupted session. Every cut runs on one manager at one measurement
// worker; a cut from each region runs again across a daemon restart on a
// FileStore, at two workers, and on ceal-worker daemons.
func TestContinuousResumeIdentical(t *testing.T) {
	type cut struct {
		kind string
		k    int
	}
	regions := []cut{{"batch", 3}, {"probe", 7}, {"batch", 9}, {"probe", 45}}
	all := append([]cut{
		{"batch", 1}, {"batch", 7}, {"batch", 8},
		{"probe", 1}, {"probe", 3}, {"probe", 27}, {"probe", 30},
	}, regions...)
	summary := func(rec *histdb.RunRecord) string {
		t.Helper()
		if rec.State != histdb.StateDone || rec.Continuous == nil {
			t.Fatalf("run %s: state %s (%s), continuous %v", rec.ID, rec.State, rec.Error, rec.Continuous)
		}
		c, err := json.Marshal(rec.Continuous)
		if err != nil {
			t.Fatal(err)
		}
		r, err := json.Marshal(rec.Result)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s\n%s", c, r)
	}
	for _, workers := range []int{1, 2} {
		spec := contSpec()
		spec.Workers = workers

		base := NewManager(Options{Workers: 1})
		rec, _, err := base.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		baseRec := waitDone(t, base, rec.ID)
		want := summary(baseRec)
		base.Shutdown(context.Background())

		for _, onFile := range []bool{false, true} {
			cuts := regions
			if workers == 1 && !onFile {
				cuts = all
			}
			for _, c := range cuts {
				name := fmt.Sprintf("workers=%d/file=%v/%s=%d", workers, onFile, c.kind, c.k)
				var store histdb.Store = histdb.NewMemStore()
				path := filepath.Join(t.TempDir(), "runs")
				if onFile {
					if store, err = histdb.OpenFileStore(path); err != nil {
						t.Fatal(err)
					}
				}
				var m *Manager
				canceller := &cancelAt{kind: c.kind, k: c.k, cancel: func() { _, _ = m.Cancel("run-000001") }}
				m = NewManager(Options{Workers: 1, Store: store, Build: func(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
					p, alg, err := BuildSpec(s)
					if err == nil {
						p.Observer = canceller
					}
					return p, alg, err
				}})
				if _, _, err := m.Submit(spec); err != nil {
					t.Fatal(err)
				}
				if got := waitDone(t, m, "run-000001"); got.State != histdb.StateCancelled {
					t.Fatalf("%s: interrupted state = %s (%s)", name, got.State, got.Error)
				}
				if onFile {
					// A full daemon restart between the interrupt and the resume.
					if err := m.Shutdown(context.Background()); err != nil {
						t.Fatal(err)
					}
					if store, err = histdb.OpenFileStore(path); err != nil {
						t.Fatal(err)
					}
					m = NewManager(Options{Workers: 1, Store: store})
				}
				if _, err := m.Resume("run-000001"); err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				got := waitDone(t, m, "run-000001")
				if s := summary(got); s != want {
					t.Fatalf("%s: resumed session differs from the uninterrupted one:\n got %s\nwant %s", name, s, want)
				}
				// The checkpoint is replayed beneath the collector and the clock:
				// the resumed session's collector counts what the uninterrupted
				// one's did.
				if got.Collector.Misses != baseRec.Collector.Misses || got.Collector.Hits != baseRec.Collector.Hits {
					t.Fatalf("%s: resumed collector %+v, uninterrupted %+v", name, got.Collector, baseRec.Collector)
				}
				m.Shutdown(context.Background())
			}
		}
	}

	// On workers, one cut per region: the resumed session sends strictly
	// fewer items than the uninterrupted one — none it had journaled.
	urls := []string{newWorker(t, 1).URL, newWorker(t, 1).URL}
	sent := func() (n float64) {
		for _, url := range urls {
			n += workerItems(t, url)
		}
		return n
	}
	var m *Manager
	var canceller events.Observer
	newRemote := func() *Manager {
		return NewManager(Options{Workers: 1, Build: func(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			p, alg, err := BuildSpecRemote(urls)(s)
			if err == nil {
				p.Observer = canceller
			}
			return p, alg, err
		}})
	}
	m = newRemote()
	if _, _, err := m.Submit(contSpec()); err != nil {
		t.Fatal(err)
	}
	want := summary(waitDone(t, m, "run-000001"))
	uninterrupted := sent()
	m.Shutdown(context.Background())
	for _, c := range regions {
		name := fmt.Sprintf("remote/%s=%d", c.kind, c.k)
		canceller = &cancelAt{kind: c.kind, k: c.k, cancel: func() { _, _ = m.Cancel("run-000001") }}
		m = newRemote()
		if _, _, err := m.Submit(contSpec()); err != nil {
			t.Fatal(err)
		}
		if got := waitDone(t, m, "run-000001"); got.State != histdb.StateCancelled {
			t.Fatalf("%s: interrupted state = %s (%s)", name, got.State, got.Error)
		}
		before := sent()
		if _, err := m.Resume("run-000001"); err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if s := summary(waitDone(t, m, "run-000001")); s != want {
			t.Fatalf("%s: resumed session differs from the uninterrupted one:\n got %s\nwant %s", name, s, want)
		}
		if resumed := sent() - before; resumed >= uninterrupted {
			t.Fatalf("%s: the resumed session sent %g items, the uninterrupted one %g", name, resumed, uninterrupted)
		}
		m.Shutdown(context.Background())
	}
}
