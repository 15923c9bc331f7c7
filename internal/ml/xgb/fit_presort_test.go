package xgb

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

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
	matchesReference(t, label, want.PredictRow, got, X)
}

// matchesReference asserts got's batch predictions of X are bitwise want's.
func matchesReference(t *testing.T, label string, want func([]float64) float64, got *Model, X [][]float64) {
	t.Helper()
	g := predictAll(got, X)
	for i, x := range X {
		if w := want(x); math.Float64bits(w) != math.Float64bits(g[i]) {
			t.Fatalf("%s: row %d predicts %v, want %v", label, i, g[i], w)
		}
	}
}

// TestFitMatchesReferenceTrainer pins the whole training path —
// pre-sorted growth, leaf-assignment prediction updates — to the
// per-node-sort trainer, bitwise, across regularization regimes.
func TestFitMatchesReferenceTrainer(t *testing.T) {
	X, y := trainingData(3, 50, 6)
	cases := []Params{
		{Rounds: 40, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1},
		{Rounds: 40, LearningRate: 0.3, MaxDepth: 3, Lambda: 0.5, MinChildWeight: 1},
		{Rounds: 40, LearningRate: 0.1, MaxDepth: 5, Lambda: 1, MinChildWeight: 2},
		{Rounds: 40, LearningRate: 0.2, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Gamma: 0.01},
	}
	probes, _ := trainingData(8, 30, 6)
	for ci, p := range cases {
		want := referenceFit(X, y, p)
		got, err := FitOn(nil, X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.trees) != got.Rounds() {
			t.Fatalf("case %d: rounds %d, want %d", ci, got.Rounds(), len(want.trees))
		}
		matchesReference(t, "train", want.Predict, got, X)
		matchesReference(t, "probe", want.Predict, got, probes)
	}

	// The rows M_H trains on: integer configurations and their derived
	// counts, from the first batches up to a full budget.
	cfgProbes, _ := configData(9, 30)
	for n := 10; n <= 50; n += 10 {
		X, y := configData(uint64(n), n)
		p := DefaultParams()
		want := referenceFit(X, y, p)
		got, err := FitOn(nil, X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		matchesReference(t, fmt.Sprintf("configs n=%d train", n), want.Predict, got, X)
		matchesReference(t, fmt.Sprintf("configs n=%d probe", n), want.Predict, got, cfgProbes)
	}
}

// TestSplitsMatchReference: Thresholds and FeatureImportance read the real
// splits of the complete-tree arrays and must equal, bit for bit, what the
// reference trainer's pointer trees give — thresholds collected per feature
// then sorted and deduplicated, gains summed per feature in preorder, tree
// by tree. One ensemble really splits feature 0 at threshold 0 and pads
// shallow leaves, so padding (feature 0, threshold 0) can be told from a
// real split only by its mark.
func TestSplitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	zX, zy := make([][]float64, 40), make([]float64, 40)
	for i := range zX {
		zX[i] = []float64{float64(2*rng.IntN(2) - 1), float64(rng.IntN(3)), rng.NormFloat64()}
		zy[i] = 10*zX[i][0] + zX[i][1] + 0.1*rng.NormFloat64()
	}
	cX, cy := configData(2, 50)
	tX, ty := trainingData(3, 60, 5)
	for _, tc := range []struct {
		name string
		X    [][]float64
		y    []float64
		p    Params
	}{
		{"feature 0 at 0", zX, zy, Params{Rounds: 30, LearningRate: 0.3, MaxDepth: 4, Lambda: 1, MinChildWeight: 4}},
		{"configs", cX, cy, DefaultParams()},
		{"normal", tX, ty, Params{Rounds: 40, LearningRate: 0.2, MaxDepth: 5, Lambda: 0.5, MinChildWeight: 2}},
	} {
		ref := referenceFit(tc.X, tc.y, tc.p)
		m, err := FitOn(nil, tc.X, tc.y, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		dim := len(tc.X[0])
		var thrs [][]float64
		gains := make([]float64, dim)
		for _, tr := range ref.trees {
			tr.Splits(func(f int, thr, gain float64) {
				for len(thrs) <= f {
					thrs = append(thrs, nil)
				}
				thrs[f] = append(thrs[f], thr)
				gains[f] += gain
			})
		}
		total := 0.0
		for f, thr := range thrs {
			slices.Sort(thr)
			thrs[f] = slices.Compact(thr)
		}
		for _, g := range gains {
			total += g
		}
		for f := range gains {
			gains[f] /= total
		}
		got := m.Thresholds()
		if len(got) != len(thrs) {
			t.Fatalf("%s: thresholds for %d features, reference %d", tc.name, len(got), len(thrs))
		}
		for f := range thrs {
			if len(got[f]) != len(thrs[f]) {
				t.Fatalf("%s: feature %d has thresholds %v, reference %v", tc.name, f, got[f], thrs[f])
			}
			for k := range thrs[f] {
				if math.Float64bits(got[f][k]) != math.Float64bits(thrs[f][k]) {
					t.Fatalf("%s: feature %d has thresholds %v, reference %v", tc.name, f, got[f], thrs[f])
				}
			}
		}
		for f, g := range m.FeatureImportance(dim) {
			if math.Float64bits(g) != math.Float64bits(gains[f]) {
				t.Fatalf("%s: feature %d importance %v, reference %v", tc.name, f, g, gains[f])
			}
		}
		if tc.name != "feature 0 at 0" {
			continue
		}
		zero, padded := false, false
		for j, real := range m.split {
			zero = zero || real && m.feats[j] == 0 && m.thresh[j] == 0
			padded = padded || !real
		}
		if !zero || !padded {
			t.Fatalf("%s: split feature 0 at 0: %v, padded a shallow leaf: %v; want both", tc.name, zero, padded)
		}
	}
}

// configData mimics a surrogate's training rows: a workflow configuration
// (ranks, ranks per node, threads, output interval) over integer ranges,
// and the node, core and reserved-core counts derived from it — seven
// integer columns with heavy ties — against a runtime-like target.
func configData(seed uint64, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewPCG(seed, 17))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		procs, ppn, threads, interval := 2+rng.IntN(1023), 1+rng.IntN(35), 1+rng.IntN(4), 1+rng.IntN(16)
		nodes := (procs + ppn - 1) / ppn
		X[i] = []float64{float64(procs), float64(ppn), float64(threads), float64(interval),
			float64(nodes), float64(procs * threads), float64(nodes * 36)}
		y[i] = 1e4/float64(procs*threads) + 3*math.Log(float64(nodes)) + 20/float64(interval) + 0.1*rng.NormFloat64()
	}
	return X, y
}

// TestBoosterRejectsBadTrainingData pins the ingestion boundary: a
// training set with a NaN/Inf feature or target or a ragged row is
// refused whole with ErrBadTrainingData, wherever the bad row sits, and a
// refusal leaves nothing behind — the good rows alone fit as ever.
func TestBoosterRejectsBadTrainingData(t *testing.T) {
	X, y := trainingData(51, 30, 4)
	p := Params{Rounds: 10, LearningRate: 0.1, MaxDepth: 3, Lambda: 1, MinChildWeight: 1}
	bad := []struct {
		name string
		X    [][]float64
		y    []float64
	}{
		{"NaN feature", [][]float64{{1, 2, 3, 4}, {1, math.NaN(), 3, 4}}, []float64{1, 2}},
		{"Inf feature", [][]float64{{math.Inf(-1), 2, 3, 4}}, []float64{1}},
		{"Inf target", [][]float64{{1, 2, 3, 4}}, []float64{math.Inf(1)}},
		{"NaN target", [][]float64{{1, 2, 3, 4}}, []float64{math.NaN()}},
		{"ragged row", [][]float64{{1, 2, 3, 4}, {1, 2, 3}}, []float64{1, 2}},
	}
	want, err := FitOn(nil, X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range bad {
		if _, err := FitOn(nil, tc.X, tc.y, p); !errors.Is(err, ErrBadTrainingData) {
			t.Errorf("FitOn %s: err = %v, want ErrBadTrainingData", tc.name, err)
		}
		// The same rows behind 20 good ones: the first row fixes the width.
		Xb := append(append([][]float64{}, X[:20]...), tc.X...)
		yb := append(append([]float64{}, y[:20]...), tc.y...)
		if _, err := FitOn(nil, Xb, yb, p); !errors.Is(err, ErrBadTrainingData) {
			t.Errorf("FitOn %s after good rows: err = %v, want ErrBadTrainingData", tc.name, err)
		}
	}
	got, err := FitOn(nil, X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	samePredictions(t, "good rows after rejected fits", want, got, X)
}

// TestNewBoosterRejectsDeepTrees pins the depth cap every complete-tree
// predict path relies on: 8 levels fit, 9 are refused up front.
func TestNewBoosterRejectsDeepTrees(t *testing.T) {
	X, y := trainingData(61, 40, 4)
	p := Params{Rounds: 3, LearningRate: 0.1, MaxDepth: maxFlatDepth + 1, Lambda: 1, MinChildWeight: 1}
	if _, err := FitOn(nil, X, y, p); err == nil {
		t.Fatalf("FitOn accepted MaxDepth %d", p.MaxDepth)
	}
	p.MaxDepth = maxFlatDepth
	if _, err := FitOn(nil, X, y, p); err != nil {
		t.Fatalf("MaxDepth %d: %v", p.MaxDepth, err)
	}
}

// trainBenchData is the surrogate-refit workload: 64 samples × 8
// features, 100 rounds, depth 4.
func trainBenchData() ([][]float64, []float64, Params) {
	X, y := trainingData(1, 64, 8)
	return X, y, DefaultParams()
}

// BenchmarkFitPresorted measures the trainer, a fresh one a fit, on
// that workload's codes (normal: mostly continuous columns) and on the
// shape a surrogate refit has at the paper's budget (configs: 50 rows of 7
// integer columns, whose ties the split scan skips).
func BenchmarkFitPresorted(b *testing.B) {
	X, y, p := trainBenchData()
	cX, cy := configData(1, 50)
	for _, bc := range []struct {
		name string
		X    [][]float64
		y    []float64
	}{{"normal", X, y}, {"configs", cX, cy}} {
		q, rows := codesOf(bc.X)
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := new(Trainer).Fit(q, rows, bc.y, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
