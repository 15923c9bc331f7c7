// Benchmarks for the pool-scoring engine on the paper-scale workload: a
// 2000-configuration LV pool scored by a 100-round boosted-tree surrogate
// (the per-iteration inner loop of every tuner algorithm). The serial
// baseline reproduces the pre-engine path — re-featurizing the pool and
// walking the ensemble per row on every call — while the engine variants
// split the cold first call (featurize + predict) from the warm steady
// state (cached feature matrix, chunked tree-outer prediction).
//
// This file is an external test package so it can depend on xgb, acm and
// workflow, all of which import score.
package score_test

import (
	"math/rand/v2"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
	"ceal/internal/workflow"
)

// benchPool samples a pool from the LV benchmark's joint space.
func benchPool(b *testing.B, n int) (*workflow.Benchmark, []cfgspace.Config) {
	b.Helper()
	bench := workflow.LV(cluster.Default())
	rng := rand.New(rand.NewPCG(1, 0))
	pool := bench.Space.SampleN(rng, n)
	if len(pool) != n {
		b.Fatalf("sampled %d configurations, want %d", len(pool), n)
	}
	return bench, pool
}

// trainModel fits a paper-sized (100-round) surrogate over the benchmark's
// feature vectors with a smooth synthetic target.
func trainModel(b *testing.B, bench *workflow.Benchmark, pool []cfgspace.Config) *xgb.Model {
	b.Helper()
	const nTrain = 40
	X := make([][]float64, nTrain)
	y := make([]float64, nTrain)
	for i := 0; i < nTrain; i++ {
		X[i] = bench.Features(pool[i])
		for _, v := range X[i] {
			y[i] += v
		}
	}
	m, err := xgb.Fit(X, y, xgb.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// cellModel is a boosted ensemble as an acm.CellPredictor (Thresholds
// comes with the embedded model).
type cellModel struct{ *xgb.Model }

func (m cellModel) Predict(x []float64) float64 { return m.PredictRow(x) }

func (m cellModel) PredictBatch(X [][]float64, out []float64) { m.PredictBatchOnInto(nil, X, out) }

// BenchmarkPredictPool measures one surrogate pool-scoring pass — what
// every algorithm runs once per refinement iteration.
func BenchmarkPredictPool(b *testing.B) {
	bench, pool := benchPool(b, 2000)
	model := trainModel(b, bench, pool)

	// The pre-engine path: featurize every configuration and walk the
	// ensemble row by row, every call.
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]float64, len(pool))
			for j, cfg := range pool {
				out[j] = model.PredictRow(bench.Features(cfg))
			}
		}
	})

	// Engine path, first call of a run: featurize-and-cache plus predict.
	b.Run("par8-cold", func(b *testing.B) {
		eng := score.New(8)
		for i := 0; i < b.N; i++ {
			var mat score.Matrix
			X := mat.Rows(eng, pool, bench.Features)
			model.PredictBatchOnInto(eng, X, make([]float64, len(X)))
		}
	})

	// Engine path, steady state: every later iteration of a run hits the
	// cached feature matrix and only pays for prediction.
	b.Run("par8-warm", func(b *testing.B) {
		eng := score.New(8)
		var mat score.Matrix
		mat.Rows(eng, pool, bench.Features)
		out := make([]float64, len(pool))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			X := mat.Rows(eng, pool, bench.Features)
			model.PredictBatchOnInto(eng, X, out)
		}
	})

	b.Run("serial-warm", func(b *testing.B) {
		var mat score.Matrix
		mat.Rows(nil, pool, bench.Features)
		out := make([]float64, len(pool))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			X := mat.Rows(nil, pool, bench.Features)
			model.PredictBatchOnInto(nil, X, out)
		}
	})
}

// BenchmarkScoreBatch measures the low-fidelity analytical model over the
// pool's rank codes, which the surrogate has already built: bucket tables,
// cell numbering and one component-model prediction a cell, folded by the
// combiner (CEAL's Phase-2 ranking before the switch). The workflow
// features hold the configurable components' features in order.
func BenchmarkScoreBatch(b *testing.B) {
	bench, pool := benchPool(b, 2000)
	lf := &acm.LowFidelity{Combine: acm.Max}
	spans := make([]acm.Span, len(bench.Components))
	lo, at := 0, 0
	for j, cs := range bench.Components {
		part := acm.Part{Name: cs.Name, Lo: lo, Hi: lo + cs.Dim()}
		lo = part.Hi
		if cs.Space == nil {
			part.Predictor = acm.ConstPredictor(1)
			lf.Parts = append(lf.Parts, part)
			continue
		}
		cs := cs
		part.Features = func(sub cfgspace.Config) []float64 { return cs.Features(sub) }
		spans[j] = acm.Span{Lo: at, Hi: at + len(part.Features(part.Sub(pool[0])))}
		at = spans[j].Hi
		const nTrain = 30
		X := make([][]float64, nTrain)
		y := make([]float64, nTrain)
		for i := 0; i < nTrain; i++ {
			X[i] = part.Features(part.Sub(pool[i]))
			for _, v := range X[i] {
				y[i] += v
			}
		}
		m, err := xgb.Fit(X, y, xgb.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		part.Predictor = cellModel{m}
		lf.Parts = append(lf.Parts, part)
	}
	var mat score.Matrix
	q := mat.Codes(nil, pool, bench.Features)

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lf.ScoreCodes(nil, q, spans, pool)
		}
	})
	b.Run("par8", func(b *testing.B) {
		eng := score.New(8)
		for i := 0; i < b.N; i++ {
			lf.ScoreCodes(eng, q, spans, pool)
		}
	})
}
