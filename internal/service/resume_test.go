package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ceal/internal/dispatch"
	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

func TestResumeErrors(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Options{
		Workers: 1,
		Build: func(spec JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			<-gate
			return BuildSpec(spec)
		},
	})
	defer m.Shutdown(context.Background())
	defer close(gate)

	if _, err := m.Resume("run-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown ID resume = %v, want ErrNotFound", err)
	}

	rec, _, err := m.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Queued or running runs are in flight, not resumable.
	if _, err := m.Resume(rec.ID); !errors.Is(err, ErrInFlight) {
		t.Fatalf("in-flight resume = %v, want ErrInFlight", err)
	}
}

func TestResumeDoneRunRefused(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	rec, _, err := m.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, m, rec.ID); got.State != histdb.StateDone {
		t.Fatalf("state = %s", got.State)
	}
	if _, err := m.Resume(rec.ID); !errors.Is(err, ErrNotResumable) {
		t.Fatalf("done resume = %v, want ErrNotResumable", err)
	}
}

// TestInterruptedRunResumesToIdenticalResult is the PR's core acceptance
// check: a run interrupted mid-flight and resumed from its persisted
// checkpoint — across a full daemon restart — must produce the same final
// Result as the same spec run uninterrupted.
func TestInterruptedRunResumesToIdenticalResult(t *testing.T) {
	// AL measures in several batches (seed batch + per-iteration batches), so
	// an interrupt after the first batch leaves a non-empty checkpoint: the
	// collector only commits completed batches to its cache.
	spec := JobSpec{Benchmark: "LV", Algorithm: "al", Objective: "comp", Budget: 40, Pool: 100, Seed: 11}

	// Baseline: the uninterrupted run.
	var baseCalls, resumeCalls atomic.Int64
	base := NewManager(Options{Workers: 1, Build: countedBuild(0, &baseCalls)})
	rec, _, err := base.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, base, rec.ID)
	if want.State != histdb.StateDone {
		t.Fatalf("baseline state = %s (%s)", want.State, want.Error)
	}
	base.Shutdown(context.Background())

	// Interrupted: same spec on a file store, killed mid-run by Shutdown
	// (which cancels in-flight jobs the way a crash would orphan them).
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	fs, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Options{Workers: 1, Store: fs, Build: slowBuild(5 * time.Millisecond)})
	rec, _, err = m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m1, rec.ID)
	// Wait for the first checkpoint (at least one measured batch) before
	// interrupting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, ok := m1.Get(rec.ID); ok && len(got.Checkpoint) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared while running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh manager over the same log resumes the orphan.
	fs2, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := fs2.Get(rec.ID)
	if !ok || stored.State == histdb.StateDone {
		t.Fatalf("interrupted record = %+v, %v", stored, ok)
	}
	if len(stored.Checkpoint) == 0 {
		t.Fatal("interrupted run has no checkpoint")
	}
	m2 := NewManager(Options{Workers: 1, Store: fs2, Build: countedBuild(0, &resumeCalls)})
	defer m2.Shutdown(context.Background())
	if _, err := m2.Resume(rec.ID); err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m2, rec.ID)
	if got.State != histdb.StateDone {
		t.Fatalf("resumed state = %s (%s)", got.State, got.Error)
	}
	if got.Checkpoint != nil {
		t.Fatal("checkpoint not cleared on completion")
	}

	wantJSON, _ := json.Marshal(want.Result)
	gotJSON, _ := json.Marshal(got.Result)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("resumed result differs from uninterrupted run:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
	// The checkpoint is replayed beneath the collector: the resumed run's
	// collector counts what the uninterrupted one did, while the evaluator
	// measures strictly less.
	if got.Collector.Hits != want.Collector.Hits || got.Collector.Misses != want.Collector.Misses {
		t.Fatalf("resumed collector %+v, uninterrupted %+v", got.Collector, want.Collector)
	}
	if resumeCalls.Load() >= baseCalls.Load() {
		t.Fatalf("resume re-measured everything: %d evaluator calls vs baseline %d",
			resumeCalls.Load(), baseCalls.Load())
	}
	if mt := m2.Metrics(); mt.Resumed != 1 {
		t.Fatalf("metrics = %+v", mt)
	}
}

// TestResumeRejectsBadCheckpoint: a checkpoint value no run can produce is
// refused when the journal serves it, so the resumed run fails with
// dispatch.ErrBadMeasurement and records no Result.
func TestResumeRejectsBadCheckpoint(t *testing.T) {
	st := histdb.NewMemStore()
	m := NewManager(Options{Workers: 1, Store: st})
	defer m.Shutdown(context.Background())
	rec, _, err := m.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, m, rec.ID)
	if done.State != histdb.StateDone {
		t.Fatalf("state = %s (%s)", done.State, done.Error)
	}
	// The run, as if interrupted with a tampered checkpoint of every
	// workflow measurement it makes.
	bad := done.Clone()
	bad.State, bad.Result, bad.Continuous = histdb.StateFailed, nil, nil
	bad.Checkpoint = map[string]float64{}
	for _, s := range done.Result.Samples {
		bad.Checkpoint[dispatch.Item{Kind: dispatch.KindWorkflow, Cfg: s.Cfg}.Key()] = -1
	}
	if err := st.Save(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(rec.ID); err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, rec.ID)
	if got.State != histdb.StateFailed || got.Result != nil || !strings.Contains(got.Error, dispatch.ErrBadMeasurement.Error()) {
		t.Fatalf("resume over a negative checkpoint = %s, result %v, error %q; want failed with %v",
			got.State, got.Result, got.Error, dispatch.ErrBadMeasurement)
	}
}

// snapshotAt copies the store directory from inside the event stream when
// the k-th measured batch arrives — the image a SIGKILL at that instant
// leaves on disk: the record `running`, its last checkpoint one batch old.
// (The observer runs on the run's own goroutine, ahead of the checkpointer,
// so no append is in progress while it copies.)
type snapshotAt struct {
	k        int
	src, dst string
	err      error
}

func (s *snapshotAt) OnEvent(e events.Event) {
	if _, ok := e.(*events.BatchMeasured); !ok {
		return
	}
	if s.k--; s.k == 0 {
		s.err = os.CopyFS(s.dst, os.DirFS(s.src))
	}
}

// TestRestartMarksOrphansInterrupted: a killed daemon's queued and running
// records cannot be live once the same replica reopens the store. The new
// manager reports them failed-and-resumable instead of running forever,
// leaves a sibling replica's alone, and Resume completes them to the
// uninterrupted result — a tune run and a continuous session alike.
func TestRestartMarksOrphansInterrupted(t *testing.T) {
	tune := JobSpec{Benchmark: "LV", Algorithm: "al", Objective: "comp", Budget: 40, Pool: 100, Seed: 11}
	for name, spec := range map[string]JobSpec{"tune": tune, "continuous": contSpec()} {
		live, killed := filepath.Join(t.TempDir(), "live"), filepath.Join(t.TempDir(), "killed")
		snap := &snapshotAt{k: 2, src: live, dst: killed}
		m1 := openReplica(t, live, "", Options{Build: func(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			p, alg, err := BuildSpec(s)
			if err == nil {
				p.Observer = snap
			}
			return p, alg, err
		}})
		rec, _, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := waitDone(t, m1, rec.ID)
		if want.State != histdb.StateDone || snap.err != nil {
			t.Fatalf("%s: uninterrupted run = %s (%s), snapshot error %v", name, want.State, want.Error, snap.err)
		}
		m1.Shutdown(context.Background())

		// The killed daemon's image, plus a sibling replica's live run.
		st, err := histdb.OpenFileStore(killed)
		if err != nil {
			t.Fatal(err)
		}
		if orphan, ok := st.Get(rec.ID); !ok || orphan.State != histdb.StateRunning {
			t.Fatalf("%s: snapshot holds %+v, want the run still running", name, orphan)
		}
		sibling := &histdb.RunRecord{ID: "run-b-000001", Spec: tinySpec(1), SpecKey: tinySpec(1).Key(), State: histdb.StateRunning}
		if err := st.Save(sibling); err != nil {
			t.Fatal(err)
		}
		m2 := NewManager(Options{Workers: 1, Store: st})
		got, ok := m2.Get(rec.ID)
		if !ok || got.State != histdb.StateFailed || !strings.HasPrefix(got.Error, "interrupted: ") {
			t.Fatalf("%s: orphan after restart = %s (%q), want failed (interrupted)", name, got.State, got.Error)
		}
		if sib, _ := m2.Get(sibling.ID); sib.State != histdb.StateRunning {
			t.Fatalf("%s: a sibling replica's run was marked %s", name, sib.State)
		}
		if _, err := m2.Resume(rec.ID); err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		got = waitDone(t, m2, rec.ID)
		if got.State != histdb.StateDone {
			t.Fatalf("%s: resumed state = %s (%s)", name, got.State, got.Error)
		}
		wantJSON, _ := json.Marshal([]any{want.Result, want.Continuous})
		gotJSON, _ := json.Marshal([]any{got.Result, got.Continuous})
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("%s: resumed orphan differs from the uninterrupted run:\nwant %s\ngot  %s", name, wantJSON, gotJSON)
		}
		// The next ID minted continues past the orphan's.
		if next, _, err := m2.Submit(tinySpec(9)); err != nil || next.ID != "run-000002" {
			t.Fatalf("%s: next run = %v, %v; want run-000002", name, next, err)
		}
		m2.Shutdown(context.Background())
	}
}

func TestWarmSubmitNeverDedupes(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Shutdown(context.Background())

	// Seed the history with a completed cold run of the same family.
	cold := JobSpec{Benchmark: "LV", Algorithm: "ceal", Objective: "comp", Budget: 8, Pool: 30, Seed: 5}
	rec, _, err := m.Submit(cold)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, m, rec.ID); got.State != histdb.StateDone {
		t.Fatalf("cold run = %s (%s)", got.State, got.Error)
	}

	warm := cold
	warm.WarmStart = true
	w1, fresh, err := m.Submit(warm)
	if err != nil || !fresh {
		t.Fatalf("warm submit = %v, fresh %v", err, fresh)
	}
	g1 := waitDone(t, m, w1.ID)
	if g1.State != histdb.StateDone {
		t.Fatalf("warm run = %s (%s)", g1.State, g1.Error)
	}
	// Warm data was assembled from history and pinned to the record.
	if g1.Warm.Empty() {
		t.Fatal("warm run pinned no warm data despite available history")
	}
	if mt := m.Metrics(); mt.WarmStarted != 1 {
		t.Fatalf("metrics = %+v", mt)
	}

	// A second identical warm submission is a new job, never a dedup hit:
	// the history it draws on has changed.
	w2, fresh, err := m.Submit(warm)
	if err != nil || !fresh {
		t.Fatalf("second warm submit = %v, fresh %v", err, fresh)
	}
	if w2.ID == w1.ID {
		t.Fatal("warm submission deduped onto a prior warm run")
	}
	if got := waitDone(t, m, w2.ID); got.State != histdb.StateDone {
		t.Fatalf("second warm run = %s (%s)", got.State, got.Error)
	}
}

func TestHistoryEndpointAndResumeRoutes(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	lv, _, err := m.Submit(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, lv.ID)
	hs, _, err := m.Submit(JobSpec{Benchmark: "HS", Algorithm: "rs", Objective: "comp", Budget: 5, Pool: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, hs.ID)

	var out struct {
		Runs []struct {
			ID         string   `json:"id"`
			Family     string   `json:"family"`
			Components []string `json:"components"`
			Samples    int      `json:"samples"`
		} `json:"runs"`
	}
	getJSON := func(url string) {
		t.Helper()
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		out.Runs = nil
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}

	getJSON(srv.URL + "/v1/history")
	if len(out.Runs) != 2 {
		t.Fatalf("unfiltered history = %d runs", len(out.Runs))
	}
	getJSON(srv.URL + "/v1/history?workflow=lv")
	if len(out.Runs) != 1 || out.Runs[0].ID != lv.ID {
		t.Fatalf("workflow filter = %+v", out.Runs)
	}
	if out.Runs[0].Samples != 5 || out.Runs[0].Family == "" {
		t.Fatalf("history item incomplete: %+v", out.Runs[0])
	}
	getJSON(srv.URL + "/v1/history?component=" + out.Runs[0].Components[0])
	if len(out.Runs) != 1 {
		t.Fatalf("component filter = %+v", out.Runs)
	}
	getJSON(srv.URL + "/v1/history?family=" + tinySpec(3).FamilyKey())
	if len(out.Runs) != 1 || out.Runs[0].ID != lv.ID {
		t.Fatalf("family filter = %+v", out.Runs)
	}

	// Resume routes: a done run is 409, an unknown one 404.
	resp, err := srv.Client().Post(srv.URL+"/v1/runs/"+lv.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("resume done run = %d, want 409", resp.StatusCode)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/runs/run-999999/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("resume unknown run = %d, want 404", resp.StatusCode)
	}
}
