package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"ceal/internal/drift"
	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
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
// followed by reconverged, finishes with a continuous summary, never
// dedupes, and — done — has nothing left to resume.
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

	// Identical continuous spec: a fresh run, never a dedup join.
	resp2, body2 := postJSON(t, ts.URL+"/v1/runs", contSpec())
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("second continuous POST = %d, want 201 (fresh): %s", resp2.StatusCode, body2)
	}
	var sub2 struct {
		histdb.RunRecord
		Deduped bool `json:"deduped"`
	}
	if err := json.Unmarshal(body2, &sub2); err != nil {
		t.Fatal(err)
	}
	if sub2.Deduped || sub2.ID == sub.ID {
		t.Fatalf("continuous resubmission deduped (id %s vs %s)", sub2.ID, sub.ID)
	}
	pollDone(t, ts, sub2.ID)

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

// TestBuildSpecRemoteKeepsDriftEnv: a continuous session measures through
// its drift environment in-process even on a daemon configured with remote
// workers — the worker protocol carries no platform condition, so a remote
// dispatcher would measure an undrifted platform.
func TestBuildSpecRemoteKeepsDriftEnv(t *testing.T) {
	p, alg, err := BuildSpecRemote([]string{"http://127.0.0.1:1"})(contSpec())
	if err != nil {
		t.Fatal(err)
	}
	if env, ok := p.Dispatcher.(*drift.Env); !ok || env != alg.(*tuner.Continuous).Env {
		t.Fatalf("continuous problem dispatches to %T, want the session's *drift.Env", p.Dispatcher)
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
// finishes with the summary and final result of the uninterrupted session.
// Every cut runs on one manager at one measurement worker; a cut from each
// region runs again across a daemon restart on a FileStore and at two
// workers.
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
				// The replay is from the spec: the checkpoint the interrupted run
				// left was forgotten with the first epoch's cache, so the resumed
				// session measured exactly what the uninterrupted one did.
				if got.Collector.Misses != baseRec.Collector.Misses || got.Collector.Hits != baseRec.Collector.Hits {
					t.Fatalf("%s: resumed collector %+v, uninterrupted %+v", name, got.Collector, baseRec.Collector)
				}
				m.Shutdown(context.Background())
			}
		}
	}
}
