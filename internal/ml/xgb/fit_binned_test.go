package xgb

import (
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/score"
)

// binnedTrainingData builds a low-cardinality regression set: every
// feature column draws from a small random alphabet (≤ 200 distinct
// values), so quantization is lossless and binned fits must reproduce
// the exact-greedy reference bitwise. Targets stay continuous.
func binnedTrainingData(seed uint64, n, dim int) ([][]float64, []float64) {
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

// TestFitBinnedMatchesReferenceTrainer is the fit-level oracle-
// equivalence test: on lossless (low-cardinality) data, the histogram-
// binned trainer must reproduce the per-node-sort reference bitwise —
// same sampling streams, same trees, same predictions — across
// subsample/colsample regimes and seeds.
func TestFitBinnedMatchesReferenceTrainer(t *testing.T) {
	X, y := binnedTrainingData(3, 60, 6)
	cases := []Params{
		{Rounds: 40, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 7, Binned: true},
		{Rounds: 40, LearningRate: 0.3, MaxDepth: 3, Lambda: 0.5, MinChildWeight: 1, Subsample: 0.7, ColSample: 1, Seed: 11, Binned: true},
		{Rounds: 40, LearningRate: 0.1, MaxDepth: 5, Lambda: 1, MinChildWeight: 2, Subsample: 1, ColSample: 0.5, Seed: 13, Binned: true},
		{Rounds: 40, LearningRate: 0.2, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 0.6, ColSample: 0.6, Gamma: 0.01, Seed: 17, Binned: true},
		{Rounds: 30, LearningRate: 0.2, MaxDepth: 6, Lambda: 2, MinChildWeight: 1, Subsample: 0.8, ColSample: 0.8, Seed: 23, Binned: true},
	}
	probes, _ := binnedTrainingData(8, 30, 6)
	for ci, p := range cases {
		ref := p
		ref.Binned = false
		want := referenceFit(X, y, ref)
		got, err := Fit(X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if want.Rounds() != got.Rounds() {
			t.Fatalf("case %d: rounds %d, want %d", ci, got.Rounds(), want.Rounds())
		}
		samePredictions(t, "train", want, got, X)
		samePredictions(t, "probe", want, got, probes)
	}
}

// TestFitBinnedContinuousRMSEWithinTolerance pins the lossy regime: on
// continuous data (quantile bins) the binned model is an approximation of
// the exact-greedy one, and its held-out RMSE must stay within 10% of the
// exact model's across seeds.
func TestFitBinnedContinuousRMSEWithinTolerance(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9, 31} {
		X, y := trainingData(seed, 400, 6)
		Xv, yv := trainingData(seed+100, 150, 6)
		p := Params{Rounds: 60, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: seed}
		exact, err := Fit(X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		p.Binned = true
		binned, err := Fit(X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		rmse := func(m *Model) float64 {
			var sse float64
			for i, v := range m.PredictBatch(Xv) {
				d := v - yv[i]
				sse += d * d
			}
			return math.Sqrt(sse / float64(len(yv)))
		}
		re, rb := rmse(exact), rmse(binned)
		if rb > 1.10*re {
			t.Fatalf("seed %d: binned validation RMSE %v vs exact %v exceeds 10%% tolerance", seed, rb, re)
		}
	}
}

// TestFitBinnedDeterministicAcrossWorkerCounts mirrors the pre-sorted
// acceptance test for the histogram kernel: binned fits must be bitwise
// identical whether histogram accumulation and split scans run serially
// or fan across any worker count — on continuous (lossy) data, where
// per-bin sums carry many rows each.
func TestFitBinnedDeterministicAcrossWorkerCounts(t *testing.T) {
	X, y := trainingData(5, 1200, 8)
	p := Params{Rounds: 8, LearningRate: 0.1, MaxDepth: 5, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 21, Binned: true}
	serial, err := Fit(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	probes, _ := trainingData(6, 64, 8)
	for _, w := range []int{1, 2, 4, 8} {
		m, err := FitOn(score.New(w), X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		samePredictions(t, "train", serial, m, X)
		samePredictions(t, "probe", serial, m, probes)
	}
}

// TestPredictBatchQuantizedMatchesFloat: scoring a losslessly quantized
// pool must be bitwise identical to scoring its float rows, for any
// model and worker count — the guarantee that lets the score cache hold
// uint8 codes instead of float rows.
func TestPredictBatchQuantizedMatchesFloat(t *testing.T) {
	X, y := trainingData(7, 200, 5)
	for _, binned := range []bool{false, true} {
		p := Params{Rounds: 30, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 3, Binned: binned}
		m, err := Fit(X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		pool, _ := binnedTrainingData(11, 500, 5)
		q := score.QuantizeRows(nil, pool)
		if !q.Lossless() {
			t.Fatal("low-cardinality pool quantized lossily")
		}
		want := m.PredictBatchOn(nil, pool)
		for _, e := range []*score.Engine{nil, score.New(4)} {
			got := make([]float64, q.N)
			m.PredictBatchQuantizedOnInto(e, q, got)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("binned=%v row %d: quantized predicts %v, float predicts %v", binned, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFitBinnedMaxBinsValidation pins the MaxBins parameter contract.
func TestFitBinnedMaxBinsValidation(t *testing.T) {
	X, y := binnedTrainingData(1, 20, 3)
	for _, bad := range []int{-1, 1, 257, 1000} {
		p := Params{Rounds: 2, LearningRate: 0.1, MaxDepth: 2, Binned: true, MaxBins: bad}
		if _, err := Fit(X, y, p); err == nil {
			t.Fatalf("MaxBins=%d: expected error", bad)
		}
	}
	for _, ok := range []int{0, 2, 16, 256} {
		p := Params{Rounds: 2, LearningRate: 0.1, MaxDepth: 2, Binned: true, MaxBins: ok}
		if _, err := Fit(X, y, p); err != nil {
			t.Fatalf("MaxBins=%d: unexpected error %v", ok, err)
		}
	}
}

// wideBenchData is the binned-kernel acceptance workload: 2000×8
// continuous rows, 100 rounds — large enough that per-node split
// enumeration dominates and bin-boundary scans pay off.
func wideBenchData() ([][]float64, []float64, Params) {
	X, y := trainingData(1, 2000, 8)
	p := DefaultParams() // 100 rounds, depth 4
	return X, y, p
}

// BenchmarkFitPresortedWide measures the pre-sorted exact-greedy kernel
// on the wide workload — the before side of the BENCH_train.json binned
// acceptance pair.
func BenchmarkFitPresortedWide(b *testing.B) {
	X, y, p := wideBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitBinnedWide measures the histogram-binned kernel on the
// same workload (quantization included, as in a real refit).
func BenchmarkFitBinnedWide(b *testing.B) {
	X, y, p := wideBenchData()
	p.Binned = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitBinned measures the binned kernel on the small surrogate-
// refit workload (64×8) — the regime the tuners actually retrain in,
// where quantization overhead must not swamp the scan savings.
func BenchmarkFitBinned(b *testing.B) {
	X, y, p := trainBenchData()
	p.Binned = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreBinnedMatrix measures batch-scoring a losslessly
// quantized 4096-row pool against BenchmarkScoreFloatMatrix's float-row
// baseline.
func BenchmarkScoreBinnedMatrix(b *testing.B) {
	X, y, p := trainBenchData()
	m, err := Fit(X, y, p)
	if err != nil {
		b.Fatal(err)
	}
	pool, _ := binnedTrainingData(4, 4096, 8)
	q := score.QuantizeRows(nil, pool)
	out := make([]float64, q.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchQuantizedOnInto(nil, q, out)
	}
}

// BenchmarkScoreFloatMatrix is the float-row baseline for
// BenchmarkScoreBinnedMatrix.
func BenchmarkScoreFloatMatrix(b *testing.B) {
	X, y, p := trainBenchData()
	m, err := Fit(X, y, p)
	if err != nil {
		b.Fatal(err)
	}
	pool, _ := binnedTrainingData(4, 4096, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchOn(nil, pool)
	}
}
