package paperexp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// tinyGT builds a reduced ground truth for a benchmark (cached per test
// binary: building even the tiny sets takes a noticeable fraction of a
// second, and the experiments only read them).
var gtCache = map[string]*GroundTruth{}

func tinyGT(t *testing.T, name string) *GroundTruth {
	t.Helper()
	if gt, ok := gtCache[name]; ok {
		return gt
	}
	b, err := workflow.ByName(cluster.Default(), name)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := BuildGroundTruth(b, Options{Pool: 120, ComponentSamples: 60, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	gtCache[name] = gt
	return gt
}

func tinyOpts() Options {
	return Options{Pool: 120, ComponentSamples: 60, Reps: 2, Seed: 5, Workers: 4}
}

func allTinyGTs(t *testing.T) map[string]*GroundTruth {
	return map[string]*GroundTruth{
		"LV": tinyGT(t, "LV"),
		"HS": tinyGT(t, "HS"),
		"GP": tinyGT(t, "GP"),
	}
}

func TestBuildGroundTruthBasics(t *testing.T) {
	gt := tinyGT(t, "LV")
	exec, comp := gt.Values(ExecTime), gt.Values(CompTime)
	if len(gt.Pool) != 120 || len(exec) != 120 || len(comp) != 120 {
		t.Fatalf("pool sizes wrong: %d/%d/%d", len(gt.Pool), len(exec), len(comp))
	}
	for i := range gt.Pool {
		if exec[i] <= 0 || comp[i] <= 0 {
			t.Fatalf("nonpositive measurement at %d", i)
		}
		// Computer time is exec * nodes * cores / 3600; nodes within [2,32].
		ratio := comp[i] * 3600 / exec[i] / 36
		if ratio < 2-1e-6 || ratio > 32+1e-6 {
			t.Fatalf("implied node count %v out of range for %v", ratio, gt.Pool[i])
		}
	}
	for j, samples := range gt.components[ExecTime] {
		if gt.Bench.Components[j].Space == nil {
			if len(samples) != 0 {
				t.Fatalf("fixed component %d has samples", j)
			}
			if gt.fixed[ExecTime][j] <= 0 {
				t.Fatalf("fixed component %d missing solo measurement", j)
			}
			continue
		}
		if len(samples) != 60 {
			t.Fatalf("component %d has %d samples, want 60", j, len(samples))
		}
	}
	if gt.Expert(ExecTime) <= 0 || gt.Expert(CompTime) <= 0 {
		t.Fatal("expert measurements missing")
	}
}

// TestGroundTruthRecordsEveryObjective re-measures a pool configuration, a
// component sample, the unconfigurable components and the experts with the
// build's own noise streams, and checks the ground truth holds exactly their
// Measurement.Value under every objective.
func TestGroundTruthRecordsEveryObjective(t *testing.T) {
	const seed, i = 1, 7 // tinyGT's build seed; any sample index
	same := func(what string, obj Objective, got float64, want workflow.Measurement) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want.Value(obj)) {
			t.Fatalf("%s %s: ground truth %v, measured %v", what, obj.Short(), got, want.Value(obj))
		}
	}
	for _, name := range []string{"LV", "GP"} {
		gt := tinyGT(t, name)
		b := gt.Bench
		w, err := b.Build(gt.Pool[i])
		if err != nil {
			t.Fatal(err)
		}
		pool, err := w.Measure(rand.New(rand.NewPCG(seed, 0x1000000+i)))
		if err != nil {
			t.Fatal(err)
		}
		fixed := 0
		for _, obj := range objectives {
			same(name+" pool", obj, gt.Values(obj)[i], pool)
			for j, cs := range b.Components {
				if cs.Space == nil {
					solo, err := workflow.RunSolo(b.Machine, cs.BuildSolo(nil), cs.InBytesPerStep)
					if err != nil {
						t.Fatal(err)
					}
					v, err := gt.Problem(Options{}, obj, false, 0).Eval.MeasureComponent(j, nil)
					if err != nil {
						t.Fatal(err)
					}
					same(name+" fixed "+cs.Name, obj, v, solo)
					fixed++
					continue
				}
				s := gt.components[obj][j][i]
				noise := rand.New(rand.NewPCG(seed, 0x2000000+uint64(j)<<20+i))
				solo, err := workflow.MeasureSolo(b.Machine, cs.BuildSolo(s.Cfg), cs.InBytesPerStep, noise)
				if err != nil {
					t.Fatal(err)
				}
				same(name+" component "+cs.Name, obj, s.Value, solo)
			}
			w, err := b.Build(b.Expert(obj))
			if err != nil {
				t.Fatal(err)
			}
			expert, err := w.RunInSitu()
			if err != nil {
				t.Fatal(err)
			}
			same(name+" expert", obj, gt.Expert(obj), expert)
		}
		if name == "GP" && fixed == 0 {
			t.Fatal("GP has no unconfigurable component to check")
		}
		// The energy expert is the computer-time expert's run.
		w, err = b.Build(b.ExpertComp)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := w.RunInSitu()
		if err != nil {
			t.Fatal(err)
		}
		same(name+" energy expert", Energy, gt.Expert(Energy), comp)
	}
}

func TestGroundTruthDeterministic(t *testing.T) {
	b, _ := workflow.ByName(cluster.Default(), "LV")
	opt := Options{Pool: 40, ComponentSamples: 20, Seed: 9, Workers: 8}
	g1, err := BuildGroundTruth(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGroundTruth(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Pool {
		if g1.Pool[i].Key() != g2.Pool[i].Key() || g1.Values(ExecTime)[i] != g2.Values(ExecTime)[i] || g1.Values(CompTime)[i] != g2.Values(CompTime)[i] {
			t.Fatalf("ground truth not reproducible at %d despite parallel workers", i)
		}
	}
}

func TestLookupUnknownConfig(t *testing.T) {
	gt := tinyGT(t, "LV")
	if _, err := gt.Lookup(gt.Bench.ExpertExec, ExecTime); err == nil {
		// The expert config is extremely unlikely to be in a 120-random
		// pool; Lookup must reject configs without measurements.
		t.Fatal("Lookup accepted a configuration outside the pool")
	}
}

func TestProblemRoundTrip(t *testing.T) {
	gt := tinyGT(t, "HS")
	for _, obj := range []Objective{ExecTime, CompTime} {
		for _, hist := range []bool{false, true} {
			p := gt.Problem(Options{}, obj, hist, 3)
			res, err := tuner.NewCEAL().Tune(p, 12)
			if err != nil {
				t.Fatalf("%v hist=%v: %v", obj, hist, err)
			}
			if _, err := gt.Lookup(res.Best, obj); err != nil {
				t.Fatalf("best config not from pool: %v", err)
			}
		}
	}
}

func TestRunBatteryMetrics(t *testing.T) {
	gt := tinyGT(t, "LV")
	stats, err := RunBattery(Options{Reps: 3, Seed: 2}, RunSpec{
		GT: gt, Obj: CompTime, Budget: 12,
		Algorithms: []tuner.Algorithm{tuner.RS{}, tuner.NewCEAL()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Name != "RS" || stats[1].Name != "CEAL" {
		t.Fatalf("stats order wrong: %+v", stats)
	}
	for _, st := range stats {
		if len(st.NormPerf) != 3 {
			t.Fatalf("%s: %d reps recorded", st.Name, len(st.NormPerf))
		}
		if st.MeanNormPerf() < 1 {
			t.Fatalf("%s: normalized perf %v below 1 (pool best)", st.Name, st.MeanNormPerf())
		}
		for n := 1; n <= 10; n++ {
			r := st.MeanRecall(n)
			if r < 0 || r > 100 {
				t.Fatalf("%s: recall(%d) = %v", st.Name, n, r)
			}
		}
		if len(st.Cost) != 3 || st.Cost[0] <= 0 {
			t.Fatalf("%s: cost not recorded", st.Name)
		}
	}
}

// TestBatteryIndependentOfCompanions: an algorithm's statistics are the
// same whether it runs alone, beside a subset, or in reversed order, which
// is what lets Figs. 5–12 read their columns from one battery per cell.
func TestBatteryIndependentOfCompanions(t *testing.T) {
	gt := tinyGT(t, "LV")
	run := func(algs ...tuner.Algorithm) []*AlgStats {
		stats, err := RunBattery(Options{Reps: 2, Seed: 4, Workers: 2}, RunSpec{
			GT: gt, Obj: CompTime, Budget: 12, Algorithms: algs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	all := run(allTinyAlgorithms()...)
	same := func(how string, stats []*AlgStats) {
		t.Helper()
		for _, st := range stats {
			if want := byName(all, st.Name); !reflect.DeepEqual(st, want) {
				t.Fatalf("%s %s differs from its run beside every algorithm:\n%+v\n%+v", st.Name, how, st, want)
			}
		}
	}
	for _, alg := range allTinyAlgorithms() {
		same("alone", run(alg))
	}
	same("beside AL", run(tuner.NewAL(), tuner.NewCEAL()))
	reversed := allTinyAlgorithms()
	slices.Reverse(reversed)
	same("in reversed order", run(reversed...))
}

// TestRunBatteryWorkersIdentical: the replication fan is scheduling-blind —
// any width aggregates the same statistics.
func TestRunBatteryWorkersIdentical(t *testing.T) {
	run := func(workers int) []*AlgStats {
		stats, err := RunBattery(Options{Reps: 5, Seed: 2, Workers: workers}, RunSpec{
			GT: tinyGT(t, "LV"), Obj: CompTime, Budget: 12,
			Algorithms: []tuner.Algorithm{tuner.RS{}, tuner.NewCEAL()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	if serial, fanned := run(1), run(4); !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("Workers 1 and 4 disagree:\n%+v\n%+v", serial, fanned)
	}
}

// TestBatteryParallelMatchesSerial: the same, for every battery algorithm
// at width 8, on the per-replication values.
func TestBatteryParallelMatchesSerial(t *testing.T) {
	gt := tinyGT(t, "LV")
	run := func(workers int) []*AlgStats {
		stats, err := RunBattery(Options{Reps: 4, Seed: 9, Workers: workers}, RunSpec{
			GT: gt, Obj: CompTime, Budget: 12,
			Algorithms: allTinyAlgorithms(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	serial := run(1)
	parallel := run(8)
	for a := range serial {
		for r := range serial[a].NormPerf {
			if serial[a].NormPerf[r] != parallel[a].NormPerf[r] {
				t.Fatalf("alg %s rep %d: serial %v != parallel %v",
					serial[a].Name, r, serial[a].NormPerf[r], parallel[a].NormPerf[r])
			}
		}
		if serial[a].MeanRecall(3) != parallel[a].MeanRecall(3) {
			t.Fatalf("alg %s recall differs across worker counts", serial[a].Name)
		}
	}
}

// failFrom fails every replication whose problem seed is at least from.
type failFrom struct{ from uint64 }

func (failFrom) Name() string { return "failFrom" }

func (f failFrom) Tune(p *tuner.Problem, budget int) (*tuner.Result, error) {
	if p.Seed >= f.from {
		return nil, fmt.Errorf("seed %d refused", p.Seed)
	}
	return tuner.RS{}.Tune(p, budget)
}

// TestRunBatteryLowestIndexError: with several replications failing, the
// reported error is the lowest replication's at any width.
func TestRunBatteryLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := RunBattery(Options{Reps: 4, Seed: 10, Workers: workers}, RunSpec{
			GT: tinyGT(t, "LV"), Obj: CompTime, Budget: 12,
			Algorithms: []tuner.Algorithm{failFrom{from: 11}},
		})
		if err == nil || !strings.Contains(err.Error(), "(rep 1)") || !strings.Contains(err.Error(), "seed 11 refused") {
			t.Fatalf("workers=%d: err = %v, want replication 1's failure", workers, err)
		}
	}
}

func TestObjectiveStrings(t *testing.T) {
	if ExecTime.String() != "execution time" || CompTime.Short() != "comp" {
		t.Fatal("objective labels wrong")
	}
	if Energy.String() != "energy" || Energy.Short() != "energy" {
		t.Fatal("energy labels wrong")
	}
}

func TestEnergyObjectiveEndToEnd(t *testing.T) {
	gt := tinyGT(t, "LV")
	if len(gt.Values(Energy)) != len(gt.Pool) || gt.Expert(Energy) <= 0 {
		t.Fatal("energy ground truth missing")
	}
	for i, e := range gt.Values(Energy) {
		if e <= 0 {
			t.Fatalf("nonpositive energy at %d", i)
		}
	}
	stats, err := RunBattery(Options{Reps: 2, Seed: 3}, RunSpec{
		GT: gt, Obj: Energy, Budget: 12,
		Algorithms: []tuner.Algorithm{tuner.NewCEAL()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].MeanNormPerf() < 1 {
		t.Fatalf("energy norm perf %v below pool best", stats[0].MeanNormPerf())
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "ablation"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing", want)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment sweep skipped in -short mode")
	}
	gts := allTinyGTs(t)
	opt := tinyOpts()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(gts, opt)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				s := tab.String()
				if !strings.Contains(s, tab.Header[0]) {
					t.Fatalf("%s: render missing header: %s", e.ID, s)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("%s: row width %d != header %d in %q", e.ID, len(row), len(tab.Header), tab.Title)
					}
				}
			}
		})
	}
}

// TestGridRunsEachBatteryOnce: Figs. 5–12 run 60 algorithm×cell batteries
// between them, one per (cell, family), and a cancelled battery is not kept.
func TestGridRunsEachBatteryOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment sweep skipped in -short mode")
	}
	gts := allTinyGTs(t)
	opt := tinyOpts()
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(gts, opt); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	runs := 0
	for _, gt := range gts {
		for key, stats := range gt.grid {
			if key.reps == opt.reps() && key.seed == opt.Seed {
				runs += len(stats)
			}
		}
	}
	if runs != 60 {
		t.Fatalf("Figs. 5-12 ran %d algorithm x cell batteries, want 60", runs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := opt
	cancelled.Ctx, cancelled.Seed = ctx, 99
	if _, err := fig5Cells[0].grid(gts, cancelled, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled battery: err = %v, want context.Canceled", err)
	}
	for key := range gts[fig5Cells[0].WF].grid {
		if key.seed == cancelled.Seed {
			t.Fatalf("the grid kept a cancelled battery: %+v", key)
		}
	}
}

// TestAddDiffVerdicts: a verdict reads the side of 0 the interval lies on,
// in the metric's direction; an interval that contains 0, or is all zero,
// is a tie.
func TestAddDiffVerdicts(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 3, 4, 5}
	c := cell{"LV", CompTime, 50}
	d := diffTable("Fig. 0", "a minus b")
	addDiff(d, 1, true, f3, c, "m", "a - b", a, b)
	addDiff(d, 1, false, f3, c, "m", "a - b", a, b)
	addDiff(d, 1, true, f3, c, "m", "a - a", a, a)
	addDiff(d, 1, false, f3, c, "m", "mixed", a, []float64{2, 1, 4, 3})
	want := [][]string{
		{"LV comp (50 spls)", "m", "a - b", "-1.000", "[-1.000, -1.000]", "better"},
		{"LV comp (50 spls)", "m", "a - b", "-1.000", "[-1.000, -1.000]", "worse"},
		{"LV comp (50 spls)", "m", "a - a", "0.000", "[0.000, 0.000]", "tied"},
		{"LV comp (50 spls)", "m", "mixed", "0.000", "[-1.000, 1.000]", "tied"},
	}
	if !reflect.DeepEqual(d.Rows, want) {
		t.Fatalf("rows = %q, want %q", d.Rows, want)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "Demo",
		Header: []string{"a", "bb"},
		Notes:  []string{"hello"},
	}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"Demo", "a", "bb", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if f2(1.234) != "1.23" || f1(1.26) != "1.3" || f0(7.6) != "8" || f3(0.1234) != "0.123" {
		t.Fatal("format helpers wrong")
	}
	if f2(math.Inf(1)) != "-" || f1(math.NaN()) != "-" {
		t.Fatal("non-finite formatting wrong")
	}
}

// allTinyAlgorithms is the fast algorithm set used by battery tests.
func allTinyAlgorithms() []tuner.Algorithm {
	return []tuner.Algorithm{tuner.RS{}, tuner.NewGEIST(), tuner.NewAL(), tuner.NewCEAL()}
}
