// Package forest implements a random-forest regressor (bagged mean-
// predicting trees with feature subsampling). Besides serving as an
// alternative surrogate, the spread across trees provides the uncertainty
// estimate used by the Bayesian-optimization extension (§9).
package forest

import (
	"fmt"
	"math"
	"math/rand/v2"

	"ceal/internal/ml/tree"
	"ceal/internal/score"
)

// Params configures forest training.
type Params struct {
	Trees     int     // ensemble size
	MaxDepth  int     // per-tree depth cap
	ColSample float64 // feature sampling fraction per tree
	Seed      uint64
}

// DefaultParams returns a forest suited to few-sample tabular regression.
func DefaultParams() Params {
	return Params{Trees: 100, MaxDepth: 6, ColSample: 0.8}
}

// Forest is a trained random forest.
type Forest struct {
	trees []*tree.Tree
}

// Fit trains the forest on bootstrap resamples of (X, y), serially.
func Fit(X [][]float64, y []float64, p Params) (*Forest, error) {
	return FitOn(nil, X, y, p)
}

// FitOn trains like Fit with independent tree fits fanned across the
// engine's workers (nil engine: serial). All bootstrap randomness is drawn
// serially up front in tree order, each tree writes only its own ensemble
// slot, and prediction sums stay in tree order — so the trained forest is
// bitwise identical for any worker count.
func FitOn(e *score.Engine, X [][]float64, y []float64, p Params) (*Forest, error) {
	n := len(y)
	if n == 0 || len(X) != n {
		return nil, fmt.Errorf("forest: need matching non-empty X (%d) and y (%d)", len(X), n)
	}
	if p.Trees <= 0 {
		return nil, fmt.Errorf("forest: need at least one tree")
	}
	dim := len(X[0])
	rng := rand.New(rand.NewPCG(p.Seed, 0xd1b54a32d192ed03))
	// Mean-predicting trees: grow on g_i = −y_i, h_i = 1, λ = 0.
	g := make([]float64, n)
	h := make([]float64, n)
	for i := 0; i < n; i++ {
		g[i] = -y[i]
		h[i] = 1
	}
	opt := tree.Options{MaxDepth: p.MaxDepth, MinChildWeight: 1}

	rowSets := make([][]int, p.Trees)
	colSets := make([][]int, p.Trees)
	for t := 0; t < p.Trees; t++ {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = rng.IntN(n)
		}
		rowSets[t] = rows
		colSets[t] = sampleCols(dim, p.ColSample, rng)
	}

	// Columns are pre-sorted once for the whole ensemble; the fan is at
	// tree level, so each chunk's grower runs its per-node work serially
	// (nil engine) rather than nesting parallelism.
	ctx := tree.NewContext(e, X)
	f := &Forest{trees: make([]*tree.Tree, p.Trees)}
	e.TaskChunks(p.Trees, func(lo, hi int) {
		gw := ctx.Grower(nil)
		for t := lo; t < hi; t++ {
			f.trees[t] = gw.Grow(g, h, rowSets[t], colSets[t], opt, nil)
		}
	})
	return f, nil
}

// Trees returns the ensemble size.
func (f *Forest) Trees() int { return len(f.trees) }

func sampleCols(dim int, frac float64, rng *rand.Rand) []int {
	all := make([]int, dim)
	for i := range all {
		all[i] = i
	}
	if frac >= 1 || frac <= 0 {
		return all
	}
	k := int(frac*float64(dim) + 0.5)
	if k < 1 {
		k = 1
	}
	rng.Shuffle(dim, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:k]
}

// Predict returns the forest mean for x.
func (f *Forest) Predict(x []float64) float64 {
	mean, _ := f.PredictWithStd(x)
	return mean
}

// PredictWithStd returns the ensemble mean and standard deviation for x.
func (f *Forest) PredictWithStd(x []float64) (mean, std float64) {
	var sum, sumSq float64
	for _, t := range f.trees {
		v := t.Predict(x)
		sum += v
		sumSq += v * v
	}
	n := float64(len(f.trees))
	mean = sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// PredictBatch predicts for every row of X.
func (f *Forest) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = f.Predict(x)
	}
	return out
}
