package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

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
// dedupes, and is not resumable.
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

	// Continuous runs are never resumable.
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
// BuildContinuousSpec's driver produces when called directly. The manager
// looks at every epoch's collector (stats, live gauges); if it materializes
// one before the driver installs the drift environment as the epoch's
// dispatcher, the epoch measures an undrifted platform off the virtual
// clock and the served result silently diverges from ceal-tune's.
func TestContinuousJobMatchesDirectRun(t *testing.T) {
	c, err := BuildContinuousSpec(contSpec())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.Run(contSpec().Budget)
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

// TestContinuousJobComposesInjectedObserver: an observer a BuildContinuous
// hook puts on the driver keeps receiving the continuous-mode events next to
// the run's hub (runJob composes the same way for tune runs).
func TestContinuousJobComposesInjectedObserver(t *testing.T) {
	rec := events.NewRecorder()
	m := NewManager(Options{Workers: 1, BuildContinuous: func(s JobSpec) (*tuner.Continuous, error) {
		c, err := BuildContinuousSpec(s)
		if err == nil {
			c.Observer = rec
		}
		return c, err
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
