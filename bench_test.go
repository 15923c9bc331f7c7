package ceal

// One benchmark per table and figure of the paper's evaluation (§7), plus
// the design-choice ablations and substrate micro-benchmarks. Each
// experiment bench runs a size-reduced replica of the corresponding
// cmd/paperexp experiment (smaller pools and replication so a bench
// iteration stays in the hundreds of milliseconds) and reports its
// headline quantity via b.ReportMetric. Full paper-scale regeneration:
//
//	go run ./cmd/paperexp -exp all -reps 100 -pool 2000 -compsamples 500
//
// Results and paper-vs-measured comparisons are recorded in EXPERIMENTS.md.

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"

	"ceal/internal/collector"
	"ceal/internal/dispatch"
	"ceal/internal/metrics"
	"ceal/internal/ml/xgb"
	"ceal/internal/paperexp"
	"ceal/internal/sim"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// benchGT lazily builds and caches reduced ground truths shared by the
// experiment benches.
var (
	benchGTOnce sync.Once
	benchGTs    map[string]*paperexp.GroundTruth
	benchGTErr  error
)

func benchGroundTruths(b *testing.B) map[string]*paperexp.GroundTruth {
	b.Helper()
	benchGTOnce.Do(func() {
		benchGTs = map[string]*paperexp.GroundTruth{}
		m := DefaultMachine()
		for _, name := range []string{"LV", "HS", "GP"} {
			bench, err := workflow.ByName(m, name)
			if err != nil {
				benchGTErr = err
				return
			}
			gt, err := paperexp.BuildGroundTruth(bench, paperexp.BuildOptions{
				PoolSize: 250, ComponentSamples: 100, Seed: 1, Workers: 8,
			})
			if err != nil {
				benchGTErr = err
				return
			}
			benchGTs[name] = gt
		}
	})
	if benchGTErr != nil {
		b.Fatal(benchGTErr)
	}
	return benchGTs
}

func benchOpts() paperexp.Options {
	return paperexp.Options{
		Build: paperexp.BuildOptions{PoolSize: 250, ComponentSamples: 100, Seed: 1, Workers: 8},
		Reps:  2,
		Seed:  7,
	}
}

// runExperiment executes a paperexp experiment once per bench iteration.
func runExperiment(b *testing.B, id string) []*paperexp.Table {
	b.Helper()
	gts := benchGroundTruths(b)
	exp, err := paperexp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables []*paperexp.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err = exp.Run(gts, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return tables
}

// cellFloat parses a numeric cell of the first table (row r, column c).
func cellFloat(b *testing.B, tables []*paperexp.Table, r, c int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tables[0].Rows[r][c], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q not numeric", r, c, tables[0].Rows[r][c])
	}
	return v
}

// ------------------------------------------------------ tables & figures

func BenchmarkTable1SpaceEnumeration(b *testing.B) {
	tables := runExperiment(b, "table1")
	if len(tables[0].Rows) < 15 {
		b.Fatalf("table1 rows = %d", len(tables[0].Rows))
	}
}

func BenchmarkTable2GroundTruth(b *testing.B) {
	tables := runExperiment(b, "table2")
	if len(tables[0].Rows) != 12 { // 3 workflows x 2 objectives x {best, expert}
		b.Fatalf("table2 rows = %d", len(tables[0].Rows))
	}
}

func BenchmarkFig4LowFidelityRecall(b *testing.B) {
	tables := runExperiment(b, "fig4")
	// Report the top-25 recall of the sum/computer-time combination.
	last := len(tables[0].Rows) - 1
	b.ReportMetric(cellFloat(b, tables, last, 1), "recall25_%")
}

func BenchmarkFig5AutotuneNoHistories(b *testing.B) {
	tables := runExperiment(b, "fig5")
	// Row 0: LV exec m=50; columns RS, GEIST, AL, CEAL.
	b.ReportMetric(cellFloat(b, tables, 0, 3), "RS_norm")
	b.ReportMetric(cellFloat(b, tables, 0, 6), "CEAL_norm")
}

func BenchmarkFig6MdAPE(b *testing.B) {
	tables := runExperiment(b, "fig6")
	b.ReportMetric(cellFloat(b, tables, 0, 5), "CEAL_top2_mdape_%")
}

func BenchmarkFig7Robustness(b *testing.B) {
	tables := runExperiment(b, "fig7")
	b.ReportMetric(cellFloat(b, tables, 0, 4), "CEAL_top1_recall_%")
}

func BenchmarkFig8Practicality(b *testing.B) {
	tables := runExperiment(b, "fig8")
	if len(tables[0].Rows) != 2 {
		b.Fatalf("fig8 rows = %d", len(tables[0].Rows))
	}
}

func BenchmarkFig9Histories(b *testing.B) {
	tables := runExperiment(b, "fig9")
	b.ReportMetric(cellFloat(b, tables, 0, 3), "CEAL_nohist_norm")
	b.ReportMetric(cellFloat(b, tables, 0, 4), "CEAL_hist_norm")
}

func BenchmarkFig10ALpH(b *testing.B) {
	tables := runExperiment(b, "fig10")
	b.ReportMetric(cellFloat(b, tables, 0, 3), "CEAL_norm")
	b.ReportMetric(cellFloat(b, tables, 0, 4), "ALpH_norm")
}

func BenchmarkFig11ALpHRobustness(b *testing.B) {
	tables := runExperiment(b, "fig11")
	b.ReportMetric(cellFloat(b, tables, 0, 1), "CEAL_top1_recall_%")
}

func BenchmarkFig12ALpHPracticality(b *testing.B) {
	tables := runExperiment(b, "fig12")
	if len(tables) != 2 {
		b.Fatalf("fig12 tables = %d", len(tables))
	}
}

func BenchmarkFig13Sensitivity(b *testing.B) {
	tables := runExperiment(b, "fig13")
	if len(tables) != 3 {
		b.Fatalf("fig13 tables = %d", len(tables))
	}
	// Convergence headline: computer time at I=8 without histories.
	b.ReportMetric(cellFloat(b, tables, 7, 1), "comp_coreh_I8")
}

func BenchmarkAblationSuite(b *testing.B) {
	tables := runExperiment(b, "ablation")
	if len(tables) < 4 {
		b.Fatalf("ablation tables = %d", len(tables))
	}
	// Combiner table, computer-time row: max vs bottleneck-sum handled in
	// the table itself; report CEAL-full normalized perf from table 2.
	b.ReportMetric(cellFloat(b, []*paperexp.Table{tables[1]}, 0, 1), "CEAL_full_norm")
}

// ---------------------------------------------------------- micro benches

func BenchmarkSimEngineEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		s := sim.NewStore[int](e, 2)
		e.Spawn("producer", func(p *sim.Proc) {
			for k := 0; k < 1000; k++ {
				p.Sleep(0.001)
				s.Put(p, k)
			}
		})
		e.Spawn("consumer", func(p *sim.Proc) {
			for k := 0; k < 1000; k++ {
				s.Get(p)
				p.Sleep(0.0015)
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkflowRunInSitu(b *testing.B) {
	m := DefaultMachine()
	for _, tc := range []struct {
		wf  string
		cfg Config
	}{
		{"LV", Config{288, 18, 2, 288, 18, 2}},
		{"HS", Config{13, 17, 14, 4, 29, 19, 3}},
		{"GP", Config{175, 13, 24, 23}},
	} {
		b.Run(tc.wf, func(b *testing.B) {
			bench, err := workflow.ByName(m, tc.wf)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := bench.Build(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.RunInSitu(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkXGBTrain(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	const n = 50
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 1000, rng.Float64() * 35, rng.Float64() * 4, rng.Float64() * 32}
		y[i] = 100/X[i][0] + X[i][1]*0.01 + rng.Float64()
	}
	params := xgb.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xgb.Fit(X, y, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolScoring(b *testing.B) {
	gts := benchGroundTruths(b)
	gt := gts["LV"]
	p := gt.Problem(paperexp.CompTime, true, 3)
	res, err := tuner.NewCEAL().Tune(p, 25)
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	scores, err := tuner.LowFidelityScores(p, 0, gt.Pool)
	if err != nil {
		b.Fatal(err)
	}
	truth := gt.Values(paperexp.CompTime)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.LowFidelityScores(p, 0, gt.Pool); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(metrics.RecallScore(10, scores, truth), "lowfi_recall10_%")
}

func BenchmarkGroundTruthBuild(b *testing.B) {
	m := DefaultMachine()
	bench, err := workflow.ByName(m, "LV")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := paperexp.BuildGroundTruth(bench, paperexp.BuildOptions{
			PoolSize: 100, ComponentSamples: 40, Seed: uint64(i + 1), Workers: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneAlgorithms(b *testing.B) {
	gts := benchGroundTruths(b)
	gt := gts["LV"]
	for _, alg := range []tuner.Algorithm{tuner.RS{}, tuner.NewAL(), tuner.NewGEIST(), tuner.NewALpH(), tuner.NewCEAL(), tuner.NewBO()} {
		b.Run(alg.Name(), func(b *testing.B) {
			p := gt.Problem(paperexp.CompTime, true, 3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Seed = uint64(i)
				if _, err := alg.Tune(p, 25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectorCache contrasts the collector's cold path (fresh
// simulations through the worker pool) with its warm path (memoized
// lookups) on the LV live evaluator.
func BenchmarkCollectorCache(b *testing.B) {
	m := DefaultMachine()
	bench := BenchmarkLV(m)
	eval := &LiveEvaluator{Bench: bench, Obj: CompTime, Seed: 1}
	batch := bench.Space.SampleN(rand.New(rand.NewPCG(1, 2)), 64)
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh collector per iteration: every config is a miss.
			c := collector.New(dispatch.NewLocal(eval, dispatch.NewRunner(8)))
			if _, err := c.MeasureWorkflows(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := collector.New(dispatch.NewLocal(eval, dispatch.NewRunner(8)))
		if _, err := c.MeasureWorkflows(ctx, batch); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.MeasureWorkflows(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := c.Stats()
		b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
	})
}

func BenchmarkLiveEvaluator(b *testing.B) {
	m := DefaultMachine()
	bench := BenchmarkLV(m)
	eval := &LiveEvaluator{Bench: bench, Obj: CompTime, Seed: 1}
	cfgs := bench.Space.SampleN(rand.New(rand.NewPCG(1, 1)), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.MeasureWorkflow(cfgs[i%len(cfgs)]); err != nil {
			b.Fatal(err)
		}
	}
}
