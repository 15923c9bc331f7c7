package xgb

import (
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/ml/tree"
	"ceal/internal/score"
)

// referenceFit is the pre-optimization trainer kept verbatim as the test
// oracle: per-node-sorting tree.Grow, fresh index slices every round, and
// per-row Predict updates. Fit/FitOn must reproduce its models bitwise.
func referenceFit(X [][]float64, y []float64, p Params) *Model {
	n := len(y)
	dim := len(X[0])
	rng := rand.New(rand.NewPCG(p.Seed, 0x9e3779b97f4a7c15))
	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)
	m := &Model{base: base, eta: p.LearningRate}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	g := make([]float64, n)
	h := make([]float64, n)
	opt := tree.Options{MaxDepth: p.MaxDepth, MinChildWeight: p.MinChildWeight, Lambda: p.Lambda, Gamma: p.Gamma}
	sample := func(n int, frac float64) []int {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if frac >= 1 || frac <= 0 {
			return all
		}
		k := int(frac*float64(n) + 0.5)
		if k < 1 {
			k = 1
		}
		rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:k]
	}
	for round := 0; round < p.Rounds; round++ {
		for i := 0; i < n; i++ {
			g[i] = pred[i] - y[i]
			h[i] = 1
		}
		rows := sample(n, p.Subsample)
		cols := sample(dim, p.ColSample)
		t := tree.Grow(X, g, h, rows, cols, opt)
		m.trees = append(m.trees, t)
		for i := 0; i < n; i++ {
			pred[i] += p.LearningRate * t.Predict(X[i])
		}
	}
	return m
}

func trainingData(seed uint64, n, dim int) ([][]float64, []float64) {
	rng := rand.New(rand.NewPCG(seed, 99))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for f := range X[i] {
			if f%3 == 1 { // tie-heavy column
				X[i][f] = float64(rng.IntN(4))
			} else {
				X[i][f] = rng.NormFloat64()
			}
		}
		y[i] = X[i][0]*2 + math.Sin(X[i][dim-1]) + 0.1*rng.NormFloat64()
	}
	return X, y
}

func samePredictions(t *testing.T, label string, want, got *Model, X [][]float64) {
	t.Helper()
	w := predictAll(want, X)
	g := predictAll(got, X)
	for i := range w {
		if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
			t.Fatalf("%s: row %d predicts %v, want %v", label, i, g[i], w[i])
		}
	}
}

// TestFitMatchesReferenceTrainer pins the whole training path — sampling
// streams, pre-sorted growth, leaf-assignment prediction updates — to the
// old per-node-sort trainer, bitwise, across subsampling regimes.
func TestFitMatchesReferenceTrainer(t *testing.T) {
	X, y := trainingData(3, 50, 6)
	cases := []Params{
		{Rounds: 40, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 7},
		{Rounds: 40, LearningRate: 0.3, MaxDepth: 3, Lambda: 0.5, MinChildWeight: 1, Subsample: 0.7, ColSample: 1, Seed: 11},
		{Rounds: 40, LearningRate: 0.1, MaxDepth: 5, Lambda: 1, MinChildWeight: 2, Subsample: 1, ColSample: 0.5, Seed: 13},
		{Rounds: 40, LearningRate: 0.2, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 0.6, ColSample: 0.6, Gamma: 0.01, Seed: 17},
	}
	probes, _ := trainingData(8, 30, 6)
	for ci, p := range cases {
		want := referenceFit(X, y, p)
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

// TestFitDeterministicAcrossWorkerCounts is the acceptance-criterion test:
// the trained model's predictions must be bitwise identical whether the fit
// ran serially or fanned split enumeration across any worker count.
func TestFitDeterministicAcrossWorkerCounts(t *testing.T) {
	// Large enough that per-node column fans actually engage.
	X, y := trainingData(5, 1200, 8)
	p := Params{Rounds: 8, LearningRate: 0.1, MaxDepth: 5, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 21}
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

// trainBenchData is the surrogate-refit workload: 64 samples × 8
// features, 100 rounds, depth 4.
func trainBenchData() ([][]float64, []float64, Params) {
	X, y := trainingData(1, 64, 8)
	return X, y, DefaultParams()
}

// BenchmarkFitPresorted measures the serial trainer on that workload.
func BenchmarkFitPresorted(b *testing.B) {
	X, y, p := trainBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitPresortedParallel4 runs the same fit with a 4-worker engine
// fanning split enumeration (identical results; wall-clock scaling depends
// on available CPUs).
func BenchmarkFitPresortedParallel4(b *testing.B) {
	X, y, p := trainBenchData()
	e := score.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitOn(e, X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}
