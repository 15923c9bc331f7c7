package xgb

import (
	"errors"
	"math"
	"testing"

	"ceal/internal/score"
)

// TestBoosterIncrementalMatchesScratch is the incremental-refit oracle:
// appending rows batch by batch and refitting must produce, after every
// batch, the same model bitwise as a from-scratch FitOn over the prefix —
// with and without row/column sampling. This is the property the
// surrogate's per-iteration refit relies on.
func TestBoosterIncrementalMatchesScratch(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"presort full", Params{Rounds: 20, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 7}},
		{"presort sampled", Params{Rounds: 20, LearningRate: 0.2, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 0.7, ColSample: 0.6, Seed: 11}},
	}
	const dim = 5
	X, y := trainingData(21, 90, dim)
	probes, _ := trainingData(22, 40, dim)
	batches := []int{12, 1, 30, 7, 40} // prefix sizes 12, 13, 43, 50, 90

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := score.New(3)
			b, err := NewBooster(e, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, sz := range batches {
				if err := b.Append(X[n:n+sz], y[n:n+sz]); err != nil {
					t.Fatal(err)
				}
				n += sz
				inc, err := b.Fit()
				if err != nil {
					t.Fatal(err)
				}
				scratch, err := FitOn(e, X[:n], y[:n], tc.p)
				if err != nil {
					t.Fatal(err)
				}
				samePredictions(t, tc.name, scratch, inc, probes)
			}
		})
	}
}

// TestBoosterResetRefits pins Reset's contract: after dropping state, a
// refit over a revised row set matches a scratch fit (the surrogate takes
// this path when training targets change under it).
func TestBoosterResetRefits(t *testing.T) {
	X, y := trainingData(31, 50, 4)
	p := Params{Rounds: 15, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 9}
	e := score.New(2)
	b, err := NewBooster(e, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Fit(); err != nil {
		t.Fatal(err)
	}

	// Revise every target, Reset, refit: must match scratch on the new set.
	y2 := make([]float64, len(y))
	for i, v := range y {
		y2[i] = -v
	}
	b.Reset()
	if b.N() != 0 {
		t.Fatalf("N() = %d after Reset, want 0", b.N())
	}
	if err := b.Append(X, y2); err != nil {
		t.Fatal(err)
	}
	inc, err := b.Fit()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := FitOn(e, X, y2, p)
	if err != nil {
		t.Fatal(err)
	}
	samePredictions(t, "post-reset refit", scratch, inc, X)
}

// TestBoosterRejectsBadTrainingData pins the ingestion boundary: a batch
// with a NaN/Inf feature or target or a ragged row is refused whole with
// ErrBadTrainingData — through Append and through FitOn alike — and
// leaves the booster able to take and fit a good batch afterwards.
func TestBoosterRejectsBadTrainingData(t *testing.T) {
	X, y := trainingData(51, 30, 4)
	p := Params{Rounds: 10, LearningRate: 0.1, MaxDepth: 3, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 5}
	b, err := NewBooster(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(X[:20], y[:20]); err != nil {
		t.Fatal(err)
	}
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
	for _, tc := range bad {
		if err := b.Append(tc.X, tc.y); !errors.Is(err, ErrBadTrainingData) {
			t.Errorf("Append %s: err = %v, want ErrBadTrainingData", tc.name, err)
		}
		if b.N() != 20 {
			t.Fatalf("Append %s: rejected batch left %d rows, want 20", tc.name, b.N())
		}
	}
	// The first batch fixes the width for a one-shot fit too.
	for _, tc := range bad[:len(bad)-1] {
		if _, err := FitOn(nil, tc.X, tc.y, p); !errors.Is(err, ErrBadTrainingData) {
			t.Errorf("FitOn %s: err = %v, want ErrBadTrainingData", tc.name, err)
		}
	}
	if _, err := FitOn(nil, [][]float64{{1, 2}, {1}}, []float64{1, 2}, p); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("FitOn ragged: err = %v, want ErrBadTrainingData", err)
	}

	if err := b.Append(X[20:], y[20:]); err != nil {
		t.Fatal(err)
	}
	inc, err := b.Fit()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := FitOn(nil, X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	samePredictions(t, "good batch after rejected ones", scratch, inc, X)
}

// TestNewBoosterRejectsDeepTrees pins the depth cap every flattened
// predict path relies on: 8 levels fit, 9 are refused up front.
func TestNewBoosterRejectsDeepTrees(t *testing.T) {
	X, y := trainingData(61, 40, 4)
	p := Params{Rounds: 3, LearningRate: 0.1, MaxDepth: maxFlatDepth + 1, Lambda: 1, MinChildWeight: 1}
	if _, err := NewBooster(nil, p); err == nil {
		t.Fatalf("NewBooster accepted MaxDepth %d", p.MaxDepth)
	}
	if _, err := Fit(X, y, p); err == nil {
		t.Fatalf("Fit accepted MaxDepth %d", p.MaxDepth)
	}
	p.MaxDepth = maxFlatDepth
	if _, err := Fit(X, y, p); err != nil {
		t.Fatalf("MaxDepth %d: %v", p.MaxDepth, err)
	}
}
