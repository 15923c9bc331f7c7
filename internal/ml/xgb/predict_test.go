package xgb

import (
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/score"
)

// lowCardData builds a low-cardinality regression set: every feature
// column draws from a small random alphabet (≤ 200 distinct values), so
// score.QuantizeRows codes it losslessly. Targets stay continuous.
func lowCardData(seed uint64, n, dim int) ([][]float64, []float64) {
	rng := rand.New(rand.NewPCG(seed, 77))
	levels := make([][]float64, dim)
	for f := range levels {
		var k int
		switch f % 3 {
		case 0:
			k = 2 + rng.IntN(3)
		case 1:
			k = 4
		default:
			k = 2 + rng.IntN(199)
		}
		lv := make([]float64, k)
		for j := range lv {
			lv[j] = rng.NormFloat64() * 5
		}
		levels[f] = lv
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for f := range X[i] {
			X[i][f] = levels[f][rng.IntN(len(levels[f]))]
		}
		y[i] = X[i][0]*2 + math.Sin(X[i][dim-1]) + 0.1*rng.NormFloat64()
	}
	return X, y
}

// TestPredictBatchMatchesPredict pins every flattened entry point to the
// pointer-tree oracle Model.Predict, bitwise: PredictRow,
// PredictBatchOnInto serially and at 1/2/4/8 workers, and
// PredictBatchQuantizedOnInto over the losslessly quantized pool — for
// leaf-only ensembles (padded to one level), the shallowest and the
// deepest trees NewBooster accepts, and a batch whose length leaves a
// tail after the four-abreast loop.
func TestPredictBatchMatchesPredict(t *testing.T) {
	const dim = 6
	X, y := trainingData(5, 300, dim)
	pool, _ := lowCardData(11, 203, dim) // 203 = 4·50 + 3
	q := score.QuantizeRows(nil, pool)
	if !q.Lossless() {
		t.Fatal("low-cardinality pool quantized lossily")
	}
	cases := []struct {
		name             string
		maxDepth, padded int
	}{
		{"stumps", 0, 1},
		{"depth 1", 1, 1},
		{"depth 4", 4, 4},
		{"depth 8", 8, 8},
	}
	engines := []*score.Engine{nil, score.New(1), score.New(2), score.New(4), score.New(8)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.Rounds, p.MaxDepth = 25, tc.maxDepth
			m, err := Fit(X, y, p)
			if err != nil {
				t.Fatal(err)
			}
			if d := m.flatten().depth; d != tc.padded {
				t.Fatalf("flattened depth %d, want %d", d, tc.padded)
			}
			want := make([]float64, len(pool))
			for i, x := range pool {
				want[i] = m.Predict(x)
			}
			check := func(entry string, got []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: row %d = %v, Predict = %v", entry, i, got[i], want[i])
					}
				}
			}
			got := make([]float64, len(pool))
			for i, x := range pool {
				got[i] = m.PredictRow(x)
			}
			check("PredictRow", got)
			for _, e := range engines {
				clear(got)
				m.PredictBatchOnInto(e, pool, got)
				check("PredictBatchOnInto", got)
				clear(got)
				m.PredictBatchQuantizedOnInto(e, q, got)
				check("PredictBatchQuantizedOnInto", got)
			}
			m.PredictBatchOnInto(nil, nil, nil) // an empty batch is a no-op
		})
	}
}

// TestPredictBatchQuantizedMatchesFloat compares the two batch kernels
// with each other directly: scoring a losslessly quantized pool must be
// bitwise identical to scoring its float rows at any worker count — what
// the perf ledger's float-vs-quant ns/row pair assumes.
func TestPredictBatchQuantizedMatchesFloat(t *testing.T) {
	X, y := trainingData(7, 200, 5)
	p := Params{Rounds: 30, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 3}
	m, err := Fit(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := lowCardData(11, 500, 5)
	q := score.QuantizeRows(nil, pool)
	if !q.Lossless() {
		t.Fatal("low-cardinality pool quantized lossily")
	}
	want := predictAll(m, pool)
	for _, e := range []*score.Engine{nil, score.New(4)} {
		got := make([]float64, q.N)
		m.PredictBatchQuantizedOnInto(e, q, got)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("row %d: quantized predicts %v, float predicts %v", i, got[i], want[i])
			}
		}
	}
}
