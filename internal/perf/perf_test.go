package perf

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/collector"
)

// TestWorkloadsTiny runs all four workloads traced at smoke-test scale: a
// traced run reports every metric the workload declares, nothing else, no
// check fails, and the per-layer split accounts for the traced wall.
func TestWorkloadsTiny(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, wl := range Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			rep, err := Run(Options{Workload: wl.Name, Seed: 1, Trace: true, Tiny: true, Spans: spans})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || !rep.Correct() {
				t.Fatalf("fail_ratio %d/%d: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			var want, got []string
			for _, m := range Catalog {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
				if m.AppliesTo(wl.Name) {
					want = append(want, m.Name)
				}
			}
			for name := range rep.Metrics {
				got = append(got, name)
			}
			sort.Strings(want)
			sort.Strings(got)
			if !slices.Equal(want, got) {
				t.Errorf("emitted metrics differ from the catalog's for %s\n got %v\nwant %v", wl.Name, got, want)
			}
			if wl.Name == Store {
				return // no traced runs: its layers are direct timed calls
			}
			if rep.TraceSumPct < 95 || rep.TraceSumPct > 105 {
				t.Errorf("layer self times sum to %.1f%% of the traced wall", rep.TraceSumPct)
			}
			if un := rep.Metrics["trace.unattributed_pct"].Value; wl.Name != Serve && un > 5 {
				t.Errorf("%.1f%% of the traced wall is unattributed", un)
			}
			checkSpans(t, spans)
		})
	}
}

// checkSpans reads a span file back: every span names a parent of its own
// run that contains it, and the layers the workload crosses are there.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]Span{}
	var spans []Span
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Run != s.Run {
			t.Errorf("span %+v has no parent in its run", s)
		} else if s.StartNS < p.StartNS || s.StartNS > p.EndNS {
			t.Errorf("span %+v starts outside its parent %+v", s, p)
		}
	}
	for _, want := range []string{"run", "tune", "cfgspace.sample", "tuner.select", "collector.measure", "tuner.fit", "dispatch"} {
		if !names[want] {
			t.Errorf("no %q span among %d spans", want, len(spans))
		}
	}
}

// failingEval is an evaluator no workflow measurement survives.
type failingEval struct{ collector.Evaluator }

func (failingEval) MeasureWorkflow(cfgspace.Config) (float64, error) {
	return 0, errors.New("injected measurement failure")
}

// TestFailedCheckExitsNonZero injects a failing evaluator: the run must
// report failures and the command must exit non-zero.
func TestFailedCheckExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := execute(Options{
		Workload: Paper, Seed: 1, Tiny: true,
		wrapEval: func(e collector.Evaluator) collector.Evaluator { return failingEval{e} },
	}, false, &out, &errb)
	if code == 0 {
		t.Errorf("exit code 0 with every job failing")
	}
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		t.Fatalf("result line: %v\n%s", err, out.String())
	}
	if res.Correct || res.Failed == 0 || res.Attempted == 0 {
		t.Errorf("result %+v, want failures", res)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the driver's declaration and the
// catalog the same list: workloads, end-to-end metrics with their bounds,
// per-layer metrics.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decl.Paths, []string{"cmd/ceal-bench", "internal/perf"}) {
		t.Errorf("paths %v", decl.Paths)
	}
	if len(decl.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads declared, %d in the catalog", len(decl.Workloads), len(Workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: %+v, catalog has %+v", i, w, Workloads[i])
		}
	}
	var e2e, layer []metric
	for _, m := range Catalog {
		if m.E2E {
			e2e = append(e2e, metric{m.Name, m.Unit, m.Better, m.Bound})
		} else {
			layer = append(layer, metric{m.Name, m.Unit, m.Better, 0})
		}
	}
	check := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d in the catalog", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, catalog has %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", decl.EndToEnd, e2e)
	check("per_layer", decl.PerLayer, layer)
}

// TestJudge pins compare's verdict rule on the cases that define it.
func TestJudge(t *testing.T) {
	lower := Metric{Better: "lower", Bound: 0.10}
	higher := Metric{Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		m    Metric
		a, b []float64
		want string
	}{
		{"within bound", lower, []float64{100}, []float64{105}, Same},
		{"regressed", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, Worse},
		{"improved", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, Better},
		{"higher is better", higher, []float64{10}, []float64{8}, Worse},
		{"noisy baseline overlapping", lower, []float64{80, 100, 130, 90}, []float64{115, 125, 100, 118}, Unresolved},
		{"noisy baseline separated", lower, []float64{80, 100, 130, 90}, []float64{150, 160, 170, 155}, Worse},
	}
	for _, c := range cases {
		if got := Judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
