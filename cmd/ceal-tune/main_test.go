package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceal/internal/histdb"
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
		})
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

	// -continuous refuses the history/warm/resume machinery: a live
	// monitoring session is not replayable.
	errOut.Reset()
	if code := run([]string{"-continuous", "-history", filepath.Join(t.TempDir(), "h.jsonl")}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "-continuous is incompatible") {
		t.Fatalf("continuous+history: exit %d, stderr %q", code, errOut.String())
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
	if !strings.Contains(errOut.String(), `run "run-424242" not found`) {
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
	if !strings.Contains(errOut.String(), "run run-000001 already completed") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// TestRunResumeRefusesContinuousRecord: a store shared with ceal-serve can
// hold an interrupted continuous-mode run; replaying it as a tune run would
// silently produce a different kind of result, so -resume refuses it the
// way Manager.Resume does.
func TestRunResumeRefusesContinuousRecord(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "history")
	db, err := histdb.OpenFileStore(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	spec := histdb.Spec{Benchmark: "LV", Mode: histdb.ModeContinuous, Drift: "step", Budget: 5, Pool: 30}.Normalize()
	rec := &histdb.RunRecord{ID: "run-000001", Spec: spec, SpecKey: spec.Key(), State: histdb.StateCancelled, Error: "context canceled"}
	if err := db.Save(rec); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-history", dbPath, "-resume", "run-000001"}, &out, &errOut); code != 1 {
		t.Fatalf("continuous-record resume exit = %d, want 1 (stdout %q)", code, out.String())
	}
	if !strings.Contains(errOut.String(), "continuous-mode run, which is not resumable") {
		t.Fatalf("stderr = %q", errOut.String())
	}
	if strings.Contains(out.String(), "tuning LV") {
		t.Fatalf("the refused resume still started a run:\n%s", out.String())
	}
}
