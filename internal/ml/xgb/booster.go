// Booster: the incremental-refit form of FitOn. A tuning loop refits its
// surrogate every iteration on a sample set that only grows by one
// measured batch, so the per-fit setup — pre-sorting the feature matrix,
// allocating round buffers — is almost entirely repeated work. A Booster
// retains the training matrix, the pre-sorted context (which extends
// itself via tree.Context.Append instead of rebuilding), and every
// round-loop buffer across fits. Each Fit still draws a fresh sampling
// stream from p.Seed, so the returned model is bitwise identical to a
// one-shot FitOn over the same rows.
package xgb

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"ceal/internal/ml/tree"
	"ceal/internal/score"
)

// Booster accumulates training rows and refits on demand, reusing the
// training kernel and all per-fit scratch between fits. Not safe for
// concurrent use; each returned Model is independent and remains valid
// across later Append/Fit/Reset calls.
type Booster struct {
	p Params
	e *score.Engine

	X [][]float64
	y []float64

	ctx    *tree.Context // pre-sorted columns, extended on each Fit
	grower *tree.Grower

	pred, g, h, leaf []float64
	rowBuf, colBuf   []int
	covered          []bool
}

// ErrBadTrainingData is returned (wrapped) by Append and FitOn for rows
// the trainer cannot order or fit: a width that differs from the rows
// already held, or a NaN/±Inf feature or target.
var ErrBadTrainingData = errors.New("xgb: bad training data")

// NewBooster validates p once up front and returns an empty booster on
// the engine (nil: serial).
func NewBooster(e *score.Engine, p Params) (*Booster, error) {
	if p.Rounds <= 0 || p.LearningRate <= 0 {
		return nil, fmt.Errorf("xgb: rounds and learning rate must be positive")
	}
	if p.MaxDepth > maxFlatDepth {
		return nil, fmt.Errorf("xgb: MaxDepth must be at most %d, got %d", maxFlatDepth, p.MaxDepth)
	}
	return &Booster{p: p, e: e}, nil
}

// N returns the number of training rows currently held.
func (b *Booster) N() int { return len(b.y) }

// Append adds training rows. The row slices are retained, not copied —
// callers must not mutate them afterwards. A batch with a ragged row or a
// non-finite feature or target is rejected whole with ErrBadTrainingData
// (a NaN would silently break the (value, row) column order the trainer
// sorts by); only the appended rows are checked, so a warm refit stays
// O(batch). The pre-sorted context is extended lazily on the next Fit.
func (b *Booster) Append(X [][]float64, y []float64) error {
	if len(X) != len(y) {
		return fmt.Errorf("xgb: need matching X (%d) and y (%d)", len(X), len(y))
	}
	if len(X) == 0 {
		return nil
	}
	dim := len(X[0])
	if len(b.X) > 0 {
		dim = len(b.X[0])
	}
	for i, row := range X {
		if len(row) != dim {
			return fmt.Errorf("%w: row %d has %d features, want %d", ErrBadTrainingData, i, len(row), dim)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: row %d feature %d is %v", ErrBadTrainingData, i, f, v)
			}
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return fmt.Errorf("%w: row %d target is %v", ErrBadTrainingData, i, y[i])
		}
	}
	b.X = append(b.X, X...)
	b.y = append(b.y, y...)
	return nil
}

// Reset drops all training rows and the pre-sorted context, keeping
// buffer capacity. Use it when the target values of already-appended rows
// change (residual refits, permuted training halves) — Append only ever
// extends, it cannot revise a prefix.
func (b *Booster) Reset() {
	b.X = b.X[:0]
	b.y = b.y[:0]
	b.ctx, b.grower = nil, nil
}

// Fit trains on every appended row. The sampling stream restarts from
// p.Seed on each call, so the model matches a one-shot FitOn over the
// same (X, y) bit for bit — only the setup work (column sort, buffer
// allocation) is amortized away: the context is built on the first fit
// and merge-appended on later ones.
func (b *Booster) Fit() (*Model, error) {
	n := len(b.y)
	if n == 0 || len(b.X) != n {
		return nil, fmt.Errorf("xgb: need matching non-empty X (%d) and y (%d)", len(b.X), n)
	}
	p := b.p
	dim := len(b.X[0])
	rng := rand.New(rand.NewPCG(p.Seed, 0x9e3779b97f4a7c15))

	base := 0.0
	for _, v := range b.y {
		base += v
	}
	base /= float64(n)

	if b.ctx == nil {
		b.ctx = tree.NewContext(b.e, b.X)
		b.grower = b.ctx.Grower(b.e)
	} else {
		b.ctx.Append(b.e, b.X)
	}

	m := &Model{base: base, eta: p.LearningRate}
	m.trees = make([]*tree.Tree, 0, p.Rounds)
	b.pred = growFloats(b.pred, n)
	for i := range b.pred {
		b.pred[i] = base
	}
	b.g = growFloats(b.g, n)
	b.h = growFloats(b.h, n)
	b.leaf = growFloats(b.leaf, n)
	b.rowBuf = growInts(b.rowBuf, n)
	b.colBuf = growInts(b.colBuf, dim)
	opt := tree.Options{MaxDepth: p.MaxDepth, MinChildWeight: p.MinChildWeight, Lambda: p.Lambda, Gamma: p.Gamma}

	subsampled := p.Subsample < 1 && p.Subsample > 0
	if subsampled && len(b.covered) < n {
		// Rounds clear every entry they set, so a grown buffer only needs
		// fresh (zeroed) storage; surviving entries are already false.
		b.covered = make([]bool, n)
	}

	pred, g, h, leaf := b.pred, b.g, b.h, b.leaf
	for round := 0; round < p.Rounds; round++ {
		for i := 0; i < n; i++ {
			g[i] = pred[i] - b.y[i] // d/dpred ½(pred−y)²
			h[i] = 1
		}
		rows := sampleIndices(b.rowBuf, p.Subsample, rng)
		cols := sampleIndices(b.colBuf, p.ColSample, rng)
		t := b.grower.Grow(g, h, rows, cols, opt, leaf)
		m.trees = append(m.trees, t)
		if len(rows) == n {
			for i := 0; i < n; i++ {
				pred[i] += p.LearningRate * leaf[i]
			}
			continue
		}
		// Subsampled round: rows in the tree carry their leaf assignment;
		// only the held-out rows walk the tree.
		for _, r := range rows {
			b.covered[r] = true
		}
		for i := 0; i < n; i++ {
			if b.covered[i] {
				pred[i] += p.LearningRate * leaf[i]
			} else {
				pred[i] += p.LearningRate * t.Predict(b.X[i])
			}
		}
		for _, r := range rows {
			b.covered[r] = false
		}
	}
	return m, nil
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
