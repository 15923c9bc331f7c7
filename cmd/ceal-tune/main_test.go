package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceal/internal/histdb"
	"ceal/internal/service"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

func TestRunFlagAndNameErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		err  string
	}{
		{"unknown flag", []string{"-bogus"}, 2, ""},
		{"positional args", []string{"LV"}, 2, "unexpected arguments"},
		{"bad workflow", []string{"-workflow", "XX"}, 1, "XX"},
		{"bad objective", []string{"-objective", "sideways"}, 1, "sideways"},
		{"bad algorithm", []string{"-algorithm", "gradient-descent"}, 1, "gradient-descent"},
		{"bad trace path", []string{"-trace", filepath.Join("no", "such", "dir", "t.jsonl")}, 1, "no such file"},
		// Out-of-range numbers are admission's to refuse (they used to reach
		// makeslice and die with a stack trace).
		{"negative pool", []string{"-pool", "-5"}, 1, "pool size -5 outside"},
		{"zero pool", []string{"-pool", "0"}, 1, "must be at least 1"},
		{"negative budget", []string{"-algorithm", "rs", "-budget", "-3"}, 1, "budget -3 outside"},
		{"absurd workers", []string{"-workers", "5000"}, 1, "workers 5000 above"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != tc.code {
				t.Fatalf("exit = %d, want %d (stderr %q)", code, tc.code, errOut.String())
			}
			if tc.err != "" && !strings.Contains(errOut.String(), tc.err) {
				t.Fatalf("stderr = %q, want substring %q", errOut.String(), tc.err)
			}
			if tc.code == 1 {
				msg := errOut.String()
				if !strings.HasPrefix(msg, "ceal-tune: ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
					t.Fatalf("stderr is not one ceal-tune: line: %q", msg)
				}
			}
		})
	}
}

// TestPrintImportance: the line names only features with positive gain,
// the larger first and ties in feature order, at most three of them.
func TestPrintImportance(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	for _, tc := range []struct {
		imp  []float64
		want string
	}{
		{[]float64{0, 0.25, 0.5, 0.25, 0}, " c 50% b 25% d 25%"},
		{[]float64{0.2, 0.2, 0.2, 0.2, 0.2}, " a 20% b 20% c 20%"},
		{[]float64{0, 0.6, 0, 0.4, 0}, " b 60% d 40%"},
		{[]float64{0, 0, 0, 0, 0}, ""},
		{[]float64{1}, ""},
	} {
		var buf bytes.Buffer
		printImportance(&buf, names, tc.imp)
		want := ""
		if tc.want != "" {
			want = "  most influential parameters (surrogate gain):" + tc.want + "\n"
		}
		if buf.String() != want {
			t.Errorf("importance %v printed %q, want %q", tc.imp, buf.String(), want)
		}
	}
}

func TestRunTinyTuneWithTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errOut bytes.Buffer
	args := []string{"-workflow", "LV", "-algorithm", "rs", "-budget", "5", "-pool", "30", "-trace", tracePath}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"recommended configuration", "workflow samples measured: 5", "run-event trace written"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"event":"run_started"`)) {
		t.Fatalf("trace does not open with run_started:\n%s", data)
	}
	if !bytes.Contains(data, []byte(`"event":"run_finished"`)) {
		t.Fatalf("trace missing run_finished:\n%s", data)
	}
}

func TestRunTraceToStdout(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-workflow", "LV", "-algorithm", "rs", "-budget", "5", "-pool", "30", "-trace", "-"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), `"event":"run_finished"`) {
		t.Fatalf("stdout missing inline trace:\n%s", out.String())
	}
}

func TestRunHistoryRecordsAndWarm(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "history.jsonl")
	var out, errOut bytes.Buffer
	args := []string{"-workflow", "LV", "-algorithm", "rs", "-budget", "5", "-pool", "30", "-history", dbPath}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "recorded run run-000001 in "+dbPath) {
		t.Fatalf("stdout missing record notice:\n%s", out.String())
	}

	// A warm run against the populated DB reports its seed counts; warm data
	// only exists for a family match, and rs leaves workflow samples behind.
	out.Reset()
	errOut.Reset()
	args = append(args, "-warm")
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("warm exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "warm start: 5 prior workflow samples") {
		t.Fatalf("stdout missing warm-start notice:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "recorded run run-000002") {
		t.Fatalf("second run not recorded:\n%s", out.String())
	}
}

// TestRunHistoryRecordIsTheDaemons: a run recorded by the CLI is the record
// ceal-serve would have written — trace and collector stats included — so a
// daemon opened on the same directory replays its events byte-for-byte as
// the CLI's -trace file and serves the spec from the store.
func TestRunHistoryRecordIsTheDaemons(t *testing.T) {
	dir := t.TempDir()
	dbPath, tracePath := filepath.Join(dir, "history"), filepath.Join(dir, "t.jsonl")
	var out, errOut bytes.Buffer
	args := []string{"-workflow", "LV", "-algorithm", "ceal", "-budget", "12", "-pool", "60", "-history", dbPath, "-trace", tracePath}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	db, err := histdb.OpenFileStore(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	m := service.NewManager(service.Options{Workers: 1, Store: db})
	ts := httptest.NewServer(service.NewServer(m))
	defer func() {
		ts.Close()
		_ = m.Shutdown(context.Background())
	}()

	resp, err := http.Get(ts.URL + "/v1/runs/run-000001/events?follow=false")
	if err != nil {
		t.Fatal(err)
	}
	replay, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Both are the hub's retained lines, so not even duration_ns differs.
	if len(trace) == 0 || !bytes.Equal(replay, trace) {
		t.Fatalf("daemon replay differs from the CLI's -trace file:\nreplay %s\n trace %s", replay, trace)
	}

	rec, ok := m.Get("run-000001")
	if !ok || rec.Collector.Misses == 0 || rec.Result == nil {
		t.Fatalf("stored record lacks collector stats or result: %+v", rec)
	}

	body := `{"benchmark":"LV","algorithm":"ceal","budget":12,"pool":60}`
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !sub.Deduped || sub.ID != "run-000001" {
		t.Fatalf("resubmission to the daemon: HTTP %d, %+v; want 200, deduped, the CLI's run", resp.StatusCode, sub)
	}
}

// TestRunHistoryServesRecordedSpec: the CLI dedupes like the daemon — a cold
// spec the history already answers is reported from the store, not re-run.
func TestRunHistoryServesRecordedSpec(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "history")
	args := []string{"-workflow", "LV", "-algorithm", "rs", "-budget", "5", "-pool", "30", "-history", dbPath}
	var first, second, errOut bytes.Buffer
	if code := run(args, &first, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if code := run(args, &second, &errOut); code != 0 {
		t.Fatalf("second exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(second.String(), "run run-000001 in "+dbPath+" already answers this spec") ||
		strings.Contains(second.String(), "run-000002") {
		t.Fatalf("second invocation did not report the stored run:\n%s", second.String())
	}
	report := func(s string) string { return s[strings.Index(s, "recommended configuration"):] }
	if report(first.String()) != report(second.String()) {
		t.Fatalf("stored report differs from the original:\n%s\nvs\n%s", first.String(), second.String())
	}
	db, err := histdb.OpenFileStore(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := len(db.List()); n != 1 {
		t.Fatalf("history holds %d runs, want 1", n)
	}
}

func TestRunContinuousSmoke(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "drift.jsonl")
	var out, errOut bytes.Buffer
	args := []string{"-workflow", "LV", "-algorithm", "ceal", "-continuous", "-drift", "step",
		"-budget", "12", "-pool", "60", "-probes", "60", "-seed", "1", "-trace", tracePath}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		`under drift profile "step"`,
		"initial incumbent",
		"cumulative regret",
		"final incumbent",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"event":"drift_confirmed"`)) {
		t.Fatalf("trace missing drift_confirmed:\n%s", data)
	}

	// A session warm-starts from its own epochs; admission says so.
	errOut.Reset()
	if code := run([]string{"-continuous", "-warm", "-history", filepath.Join(t.TempDir(), "h")}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "drop warm_start") {
		t.Fatalf("continuous+warm: exit %d, stderr %q", code, errOut.String())
	}

	// Unknown drift profile fails with the profile named.
	errOut.Reset()
	if code := run([]string{"-continuous", "-drift", "tsunami"}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "tsunami") {
		t.Fatalf("bad profile: exit %d, stderr %q", code, errOut.String())
	}
}

func TestRunResumeErrors(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "history.jsonl")

	// -resume without -history is a usage error.
	var out, errOut bytes.Buffer
	if code := run([]string{"-resume", "run-000001"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-resume requires -history") {
		t.Fatalf("stderr = %q", errOut.String())
	}

	// -warm without -history likewise.
	errOut.Reset()
	if code := run([]string{"-warm"}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "-warm requires -history") {
		t.Fatalf("warm without history: exit %d, stderr %q", code, errOut.String())
	}

	// Unknown run ID: non-zero exit with a clear message naming the ID.
	errOut.Reset()
	args := []string{"-history", dbPath, "-resume", "run-424242"}
	if code := run(args, &out, &errOut); code != 1 {
		t.Fatalf("unknown-ID exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "resume run-424242: service: run not found") {
		t.Fatalf("stderr = %q", errOut.String())
	}

	// A completed run is not resumable: its result is already recorded.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-workflow", "LV", "-algorithm", "rs", "-budget", "5", "-pool", "30", "-history", dbPath}, &out, &errOut); code != 0 {
		t.Fatalf("seed run failed: %s", errOut.String())
	}
	errOut.Reset()
	args = []string{"-history", dbPath, "-resume", "run-000001"}
	if code := run(args, &out, &errOut); code != 1 {
		t.Fatalf("done-run resume exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "run not resumable: it already completed") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// cancelAfterFirstBatch interrupts its run the way a signal would, as soon
// as one measured batch is in the collector cache.
type cancelAfterFirstBatch struct{ cancel func() }

func (c *cancelAfterFirstBatch) OnEvent(e events.Event) {
	if _, ok := e.(*events.BatchMeasured); ok {
		c.cancel()
	}
}

// TestRunResumeReplaysInterruptedRun: -resume drives Manager.Resume, so an
// interrupted record — whoever wrote it — finishes with the Result the
// uninterrupted run produces.
func TestRunResumeReplaysInterruptedRun(t *testing.T) {
	args := []string{"-workflow", "LV", "-algorithm", "al", "-budget", "40", "-pool", "100", "-seed", "11"}
	result := func(dbPath string) []byte {
		t.Helper()
		db, err := histdb.OpenFileStore(dbPath)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rec, ok := db.Get("run-000001")
		if !ok || rec.State != histdb.StateDone || rec.Checkpoint != nil {
			t.Fatalf("run-000001 in %s: %+v", dbPath, rec)
		}
		data, err := json.Marshal(rec.Result)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	var out, errOut bytes.Buffer
	basePath := filepath.Join(t.TempDir(), "base")
	if code := run(append(args, "-history", basePath), &out, &errOut); code != 0 {
		t.Fatalf("baseline exit = %d, stderr: %s", code, errOut.String())
	}

	// The same spec, cancelled after its first measured batch.
	dbPath := filepath.Join(t.TempDir(), "interrupted")
	db, err := histdb.OpenFileStore(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	var m *service.Manager
	m = service.NewManager(service.Options{Workers: 1, Store: db,
		Build: func(s service.JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			p, alg, err := service.BuildSpec(s)
			if err == nil {
				p.Observer = &cancelAfterFirstBatch{cancel: func() { _, _ = m.Cancel("run-000001") }}
			}
			return p, alg, err
		}})
	spec := histdb.Spec{Benchmark: "LV", Algorithm: "al", Budget: 40, Pool: 100, Seed: 11}
	if _, _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(context.Background(), "run-000001"); err != nil {
		t.Fatal(err)
	}
	if rec, _ := m.Get("run-000001"); rec.State != histdb.StateCancelled || len(rec.Checkpoint) == 0 {
		t.Fatalf("interrupted record: state %s, %d checkpointed", rec.State, len(rec.Checkpoint))
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if code := run([]string{"-history", dbPath, "-resume", "run-000001"}, &out, &errOut); code != 0 {
		t.Fatalf("resume exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "resuming run run-000001 from ") || !strings.Contains(out.String(), "recommended configuration") {
		t.Fatalf("resume output:\n%s", out.String())
	}
	if want, got := result(basePath), result(dbPath); !bytes.Equal(want, got) {
		t.Fatalf("resumed result differs from the uninterrupted run:\nwant %s\ngot  %s", want, got)
	}
}

// TestRunResumeReplaysContinuousRecord: a continuous session is recorded
// and resumed like any run. Interrupted (here by -timeout, mid-monitoring:
// the periodic profile makes every probe's oracle scan real work) and
// resumed by ID from its checkpointed measurements, it prints the report of
// the uninterrupted session, and the store ends with one done record
// carrying the continuous summary.
func TestRunResumeReplaysContinuousRecord(t *testing.T) {
	args := []string{"-workflow", "LV", "-continuous", "-drift", "periodic", "-budget", "12", "-pool", "120", "-seed", "1"}
	// session is what ceal-tune printed from the blank line on, less the
	// wall-time line: the recorded session, not this process's speed.
	session := func(stdout string) string {
		t.Helper()
		_, rep, ok := strings.Cut(stdout, "\n\n")
		if !ok || !strings.Contains(rep, "final incumbent") {
			t.Fatalf("no report in:\n%s", stdout)
		}
		var lines []string
		for _, line := range strings.Split(rep, "\n") {
			if !strings.Contains(line, "wall time") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}

	var out, errOut bytes.Buffer
	if code := run(append(args, "-history", filepath.Join(t.TempDir(), "base")), &out, &errOut); code != 0 {
		t.Fatalf("uninterrupted exit = %d, stderr: %s", code, errOut.String())
	}
	want := session(out.String())

	dbPath := filepath.Join(t.TempDir(), "interrupted")
	out.Reset()
	if code := run(append(args, "-history", dbPath, "-timeout", "50ms"), &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "-resume run-000001") {
		t.Fatalf("interrupted exit = %d, stderr: %s", code, errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-history", dbPath, "-resume", "run-000001"}, &out, &errOut); code != 0 {
		t.Fatalf("resume exit = %d, stderr: %s", code, errOut.String())
	}
	var n int
	if _, err := fmt.Sscanf(out.String(), "resuming run run-000001 from %d checkpointed measurements", &n); err != nil || n <= 0 {
		t.Fatalf("resume banner missing or empty (%v):\n%s", err, out.String())
	}
	if got := session(out.String()); got != want {
		t.Fatalf("resumed report differs from the uninterrupted session's:\n got %s\nwant %s", got, want)
	}

	db, err := histdb.OpenFileStore(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs := db.List()
	if len(recs) != 1 || recs[0].State != histdb.StateDone || recs[0].Continuous == nil || recs[0].Checkpoint != nil {
		t.Fatalf("store after resume: %d records, first %+v", len(recs), recs[0])
	}
	// Read back from disk the summary has no in-memory Initial; the report
	// prints without it rather than dereferencing nil.
	out.Reset()
	if err := report(&out, recs[0], dbPath); err != nil || strings.Contains(out.String(), "initial incumbent") ||
		!strings.Contains(out.String(), "final incumbent") {
		t.Fatalf("report of a stored continuous record: %v\n%s", err, out.String())
	}
}
