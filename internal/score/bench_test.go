// Benchmarks for the pool-scoring engine on the paper-scale workload: a
// 2000-configuration LV pool scored by a 100-round boosted-tree surrogate
// (the per-iteration inner loop of every tuner algorithm). The serial
// baseline reproduces the pre-engine path — re-featurizing the pool and
// walking the ensemble per row on every call — while the engine variants
// split the cold first call (code from the declared columns + predict)
// from the warm steady state (cached pool codes, chunked coded
// prediction).
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

// fitFirst fits a paper-sized (100-round) model on the first n rows of
// cfgs coded by coder, with a smooth synthetic target.
func fitFirst(b *testing.B, cfgs []cfgspace.Config, coder *cfgspace.Coder, n int) *xgb.Model {
	b.Helper()
	q, err := score.Encode(nil, cfgs[:n], coder)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int32, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = int32(i)
		for _, v := range coder.Features(cfgs[i]) {
			y[i] += v
		}
	}
	m, err := new(xgb.Trainer).Fit(q, rows, y, xgb.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// cellModel is a boosted ensemble as an acm.Predictor.
type cellModel struct{ *xgb.Model }

// BenchmarkPredictPool measures one surrogate pool-scoring pass — what
// every algorithm runs once per refinement iteration.
func BenchmarkPredictPool(b *testing.B) {
	bench, pool := benchPool(b, 2000)
	model := fitFirst(b, pool, bench.Space.Columns(), 40)

	// The pre-engine path: featurize every configuration and walk the
	// ensemble's float thresholds row by row, every call.
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]float64, len(pool))
			for j, cfg := range pool {
				model.PredictBatchOnInto(nil, [][]float64{bench.Space.Features(cfg)}, out[j:j+1])
			}
		}
	})

	// predict codes the pool through mat (cached after the first call) and
	// scores it.
	predict := func(b *testing.B, eng *score.Engine, mat *score.Matrix, out []float64) {
		q, err := mat.Codes(eng, pool, bench.Space.Columns())
		if err != nil {
			b.Fatal(err)
		}
		model.PredictCodes(eng, q, out)
	}

	// Engine path, first call of a run: code-and-cache plus predict.
	b.Run("par8-cold", func(b *testing.B) {
		eng := score.New(8)
		for i := 0; i < b.N; i++ {
			predict(b, eng, &score.Matrix{}, make([]float64, len(pool)))
		}
	})

	// Engine path, steady state: every later iteration of a run hits the
	// cached pool codes and only pays for prediction.
	for _, c := range []struct {
		name    string
		workers int
	}{{"par8-warm", 8}, {"serial-warm", 1}} {
		b.Run(c.name, func(b *testing.B) {
			eng := score.New(c.workers)
			var mat score.Matrix
			out := make([]float64, len(pool))
			predict(b, eng, &mat, out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				predict(b, eng, &mat, out)
			}
		})
	}
}

// BenchmarkScoreBatch measures the low-fidelity analytical model over the
// pool's rank codes, which the surrogate has already built: bucket tables,
// cell numbering and one component-model prediction a cell, folded by the
// combiner (CEAL's Phase-2 ranking before the switch). The workflow
// columns hold the configurable components' columns in order.
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
		coder := cs.Space.Columns()
		spans[j] = acm.Span{Lo: at, Hi: at + coder.Width()}
		at = spans[j].Hi
		subs := make([]cfgspace.Config, 30)
		for i := range subs {
			subs[i] = part.Sub(pool[i])
		}
		part.Predictor = cellModel{fitFirst(b, subs, coder, len(subs))}
		lf.Parts = append(lf.Parts, part)
	}
	var mat score.Matrix
	q, err := mat.Codes(nil, pool, bench.Space.Columns())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lf.ScoreCodes(nil, q, nil, spans, pool)
		}
	})
	b.Run("par8", func(b *testing.B) {
		eng := score.New(8)
		for i := 0; i < b.N; i++ {
			lf.ScoreCodes(eng, q, nil, spans, pool)
		}
	})
}
