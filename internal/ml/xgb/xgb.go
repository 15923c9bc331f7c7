// Package xgb implements extreme-gradient-boosted regression trees — the
// role xgboost.XGBRegressor plays in the paper (§7.3) — with squared-error
// loss and shrinkage, every round grown on all rows and all columns,
// entirely on the stdlib.
//
// A run fits and predicts on rank codes (score.Codes) only. One trainer,
// Trainer.Fit, grows every tree serially on one pre-sorted grower
// (grow.go): a fit is tens of rows, too small to pay for fanning out. Each
// split stores its cut, the count of its column's values below the
// split's threshold, so a model is never compiled into code space. One
// coded walk serves PredictCodes, PredictCodedBounded and PredictRows.
// The per-node-sort reference trainer, its pointer trees and referenceFit
// live in the package's _test.go files, which hold every fit and predict
// path to them bit for bit. FitOn, PredictBatchOnInto and
// PredictBatchQuantizedOnInto take float rows or foreign codes for the
// perf harness's probes only; CI fails when shipped Go outside this
// package and internal/perf names them.
package xgb

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ceal/internal/score"
)

// Params configures training.
type Params struct {
	Rounds         int     // number of boosting rounds
	LearningRate   float64 // shrinkage per round
	MaxDepth       int     // per-tree depth cap
	Lambda         float64 // L2 regularization on leaf weights
	Gamma          float64 // minimum split gain
	MinChildWeight float64 // minimum hessian sum per child: a row count, as every hessian is 1
}

// DefaultParams suits the paper's regime: few (tens of) training samples of
// low-dimensional configurations.
func DefaultParams() Params {
	return Params{
		Rounds:         100,
		LearningRate:   0.1,
		MaxDepth:       4,
		Lambda:         1,
		MinChildWeight: 1,
	}
}

// Model is a trained boosted-tree regressor over the columns of a coded
// matrix (score.Codes): every tree a complete binary tree of one uniform
// depth (complete) in contiguous arrays with per-tree strides — split
// features, split cuts, and eta-scaled leaf values. A node's cut is the
// number of its column's values below the split's float threshold, which
// thresh keeps, so code < cut ⇔ value < threshold. Descent is pure index
// arithmetic — node j's children sit at 2j+1 and 2j+2, no child indices
// are loaded — which compiles to a branchless select and keeps the whole
// ensemble cache-resident (a 100-tree depth-4 ensemble is ~30 KB).
//
// A model predicts the rows of any coded matrix whose columns, from some
// offset, carry the values of the columns it was fitted on: the matrix it
// was fitted on, or one coded by the same declared lattices.
type Model struct {
	base   float64
	depth  int       // the deepest tree's depth, at least 1
	feats  []int32   // per tree: 2^depth-1 heap-ordered split features
	cut    []uint16  // same shape as feats: split cuts (padding: 0)
	thresh []float64 // same shape as feats: the thresholds the cuts count
	leaves []float64 // per tree: 2^depth eta-scaled leaf values
	gain   []float64 // same shape as feats: split gains (FeatureImportance)
	split  []bool    // same shape as feats: real splits, not padding

	// The early-stop bound of PredictCodedBounded, tested after every tree.
	// sufMin[t] is the sum of the smallest leaf of every tree from t on
	// (sufMin[Rounds()] = 0): the least the trees still to come can add.
	// slack bounds, with a wide safety factor, everything floating-point
	// rounding can put between "partial + sufMin[t]" and the finished sum;
	// see PredictCodedBounded for the argument.
	sufMin []float64
	slack  float64

	// scanned is how many split candidates the fit enumerated.
	scanned int64

	// fbuf backs thresh, gain, leaves and sufMin: Recycle hands it to the
	// next fit whole.
	fbuf []float64
}

// maxFlatDepth is the deepest ensemble Trainer.Fit accepts: every prediction
// entry point walks the complete-tree padding, whose size doubles per
// level (2^depth slots per tree). Defaults keep ensembles at depth 4.
const maxFlatDepth = 8

// descend walks x down one complete tree (heap-ordered feats and tb, depth
// levels) and returns the heap index it lands on; the leaf slot is that
// index minus the tree's inner-node count. x and tb are a float row and
// the split thresholds, or a rank-coded row and the cuts. Small enough to
// inline into every caller.
func descend[T float64 | uint16](x []T, fb []int32, tb []T, depth int) int {
	j := 0
	for d := 0; d < depth; d++ {
		b := 1
		if x[fb[j]] < tb[j] {
			b = 0
		}
		j = 2*j + 1 + b
	}
	return j
}

// ErrBadTrainingData is returned (wrapped) by Trainer.Fit and FitOn for
// rows they cannot order or fit: a ragged row, or a NaN/±Inf feature or
// target.
var ErrBadTrainingData = errors.New("xgb: bad training data")

// FitOn trains a model on float feature rows X and targets y: the rows
// coded by discovery (score.QuantizeRows) on the engine (nil: serially),
// then one fit on a fresh Trainer. No tuning run calls it; it serves the
// perf harness.
func FitOn(e *score.Engine, X [][]float64, y []float64, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("xgb: need matching non-empty X (%d) and y (%d)", len(X), len(y))
	}
	for i, row := range X {
		if len(row) != len(X[0]) {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d", ErrBadTrainingData, i, len(row), len(X[0]))
		}
	}
	q := score.QuantizeRows(e, X) // Fit refuses the NaN and ±Inf values it codes
	if q == nil {
		return nil, fmt.Errorf("%w: a feature has more than %d distinct values", score.ErrWideColumn, score.MaxCodes)
	}
	rows := make([]int32, len(X))
	for i := range rows {
		rows[i] = int32(i)
	}
	return new(Trainer).Fit(q, rows, y, p)
}

// Trainer fits models one after another and keeps its storage between
// fits: one grower, the training predictions, and the arrays of a
// model handed back through Recycle. The zero Trainer is ready to fit. A
// Trainer is not safe for concurrent use.
type Trainer struct {
	gw    grower
	work  []float64 // training predictions, gradients and leaf outputs
	spare *Model    // handed back by Recycle: its arrays back the next fit
}

// Recycle hands back a model its owner will never read again: the next
// successful Fit overwrites its arrays, so no call on m, from any
// goroutine, may follow. Recycling nil drops any spare.
func (t *Trainer) Recycle(m *Model) { t.spare = m }

// Fit trains a model on the given rows of the coded matrix q, row rows[k]
// with target y[k], over all of q's columns. Feature columns are
// pre-sorted once as (code, k) pairs — the matrix is static across all
// rounds — and every round's tree is grown on the Trainer's grower by
// stable partition of the sorted columns, straight into the model's
// complete-tree arrays. A split between adjacent training codes a < b
// has the float midpoint of their values as its threshold and the count
// of the column's values below that as its cut. The trained model is
// bitwise identical whatever storage it reuses, and value-identical to
// the reference per-node-sort trainer on the rows' float values. A fit
// that fails leaves the spare in place.
func (t *Trainer) Fit(q *score.Codes, rows []int32, y []float64, p Params) (*Model, error) {
	if p.Rounds <= 0 || p.LearningRate <= 0 {
		return nil, fmt.Errorf("xgb: rounds and learning rate must be positive")
	}
	if p.MaxDepth > maxFlatDepth {
		return nil, fmt.Errorf("xgb: MaxDepth must be at most %d, got %d", maxFlatDepth, p.MaxDepth)
	}
	n := len(y)
	if n == 0 || len(rows) != n {
		return nil, fmt.Errorf("xgb: need matching non-empty rows (%d) and y (%d)", len(rows), n)
	}
	// A non-finite value would break the order the codes stand for, so
	// bad rows reject the fit whole.
	for k, r := range rows {
		if r < 0 || int(r) >= q.N {
			return nil, fmt.Errorf("xgb: row %d is not in the %d-row matrix", r, q.N)
		}
		for f, c := range q.Row(int(r)) {
			if v := q.Value(f, c); math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: row %d feature %d is %v", ErrBadTrainingData, r, f, v)
			}
		}
		if math.IsNaN(y[k]) || math.IsInf(y[k], 0) {
			return nil, fmt.Errorf("%w: row %d target is %v", ErrBadTrainingData, r, y[k])
		}
	}

	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)

	t.gw.reset(q, rows)

	// Every round grows into its slots of a complete ensemble as deep as
	// MaxDepth allows (zero-depth stumps still need one padded level).
	// grow writes every slot, so a spare's stale arrays serve as well as
	// new ones.
	depth := max(p.MaxDepth, 1)
	inner := 1<<depth - 1
	nodes := inner * p.Rounds
	old := t.spare
	if old == nil {
		old = &Model{}
	}
	t.spare = nil
	fbuf := resize(old.fbuf, 3*nodes+2*p.Rounds+1)
	m := &Model{
		base:   base,
		feats:  resize(old.feats, nodes),
		cut:    resize(old.cut, nodes),
		thresh: fbuf[:nodes],
		gain:   fbuf[nodes : 2*nodes],
		leaves: fbuf[2*nodes : 3*nodes+p.Rounds],
		sufMin: fbuf[3*nodes+p.Rounds:],
		split:  resize(old.split, nodes),
		fbuf:   fbuf,
	}
	scanned := t.gw.scanned
	t.work = resize(t.work, 3*n)
	pred, g, leaf := t.work[:n], t.work[n:2*n], t.work[2*n:]
	for i := range pred {
		pred[i] = base
	}
	reached := 1
	for round := 0; round < p.Rounds; round++ {
		for i := range g {
			g[i] = pred[i] - y[i] // d/dpred ½(pred−y)²
		}
		// Every row is in the tree, so leaf carries each row's prediction
		// and nothing walks the tree again.
		lo, hi := round*inner, (round+1)*inner
		d := t.gw.grow(g, p, p.LearningRate, complete{
			feats: m.feats[lo:hi], cut: m.cut[lo:hi], thresh: m.thresh[lo:hi], gain: m.gain[lo:hi], split: m.split[lo:hi],
			leaves: m.leaves[lo+round : hi+round+1],
		}, leaf)
		reached = max(reached, d)
		for i := range pred {
			pred[i] += p.LearningRate * leaf[i]
		}
	}
	m.shrink(depth, reached)
	m.scanned = t.gw.scanned - scanned

	m.sufMin[p.Rounds] = 0
	leafN := 1 << m.depth
	reach := math.Abs(m.base) // no partial sum or suffix exceeds this in magnitude
	for i := p.Rounds - 1; i >= 0; i-- {
		lb := m.leaves[i*leafN : (i+1)*leafN]
		m.sufMin[i] = m.sufMin[i+1] + slices.Min(lb)
		reach += math.Max(math.Abs(slices.Min(lb)), math.Abs(slices.Max(lb)))
	}
	m.slack = reach * float64(p.Rounds+2) * 0x1p-50
	return m, nil
}

// resize returns s at length n, or a new slice when its capacity is
// short: of exactly n when s has none, else of at least twice that
// capacity, so storage refitted on accumulating samples reallocates only
// a few times. Contents are stale; every caller overwrites what it reads.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// shrink re-lays an ensemble grown at depth from at depth to, the deepest
// any of its trees reached, so no predict path walks a level that only
// pads. No tree splits at level to or below: a tree's first 2^to-1 nodes
// hold all its splits, and each run of 2^(from-to) leaves holds one leaf's
// copies. The pass runs forward in place, as no entry moves to a later
// index.
func (m *Model) shrink(from, to int) {
	m.depth = to
	if to == from {
		return
	}
	rounds := len(m.leaves) >> from
	m.feats = shrinkNodes(m.feats, rounds, from, to)
	m.cut = shrinkNodes(m.cut, rounds, from, to)
	m.thresh = shrinkNodes(m.thresh, rounds, from, to)
	m.gain = shrinkNodes(m.gain, rounds, from, to)
	m.split = shrinkNodes(m.split, rounds, from, to)
	for k := 0; k < rounds<<to; k++ {
		m.leaves[k] = m.leaves[k<<(from-to)]
	}
	m.leaves = m.leaves[:rounds<<to]
}

// shrinkNodes keeps the top 2^to-1 of each tree's 2^from-1 nodes.
func shrinkNodes[T any](s []T, rounds, from, to int) []T {
	in, out := 1<<from-1, 1<<to-1
	for t := 0; t < rounds; t++ {
		copy(s[t*out:(t+1)*out], s[t*in:])
	}
	return s[:rounds*out]
}

// PredictBatchOnInto predicts every float feature row of X into out
// (len(out) == len(X)) on the engine's workers (nil engine: serial),
// comparing values with the thresholds: the float walk, four rows abreast,
// that the coded walk mirrors. Each row's trees accumulate in ensemble
// order regardless of chunking, so results are bitwise identical for any
// worker count. No tuning run calls it; it serves the perf harness's
// float-row probe.
func (m *Model) PredictBatchOnInto(e *score.Engine, X [][]float64, out []float64) {
	depth, rounds := m.depth, m.Rounds()
	inner, leafN := 1<<depth-1, 1<<depth
	e.MapChunks(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.base
		}
		for t := 0; t < rounds; t++ {
			fb := m.feats[t*inner : (t+1)*inner]
			tb := m.thresh[t*inner : (t+1)*inner : (t+1)*inner]
			lb := m.leaves[t*leafN : (t+1)*leafN : (t+1)*leafN]
			i := lo
			for ; i+4 <= hi; i += 4 {
				x0, x1, x2, x3 := X[i], X[i+1], X[i+2], X[i+3]
				j0, j1, j2, j3 := 0, 0, 0, 0
				for d := 0; d < depth; d++ {
					b0, b1, b2, b3 := 1, 1, 1, 1
					if x0[fb[j0]] < tb[j0] {
						b0 = 0
					}
					if x1[fb[j1]] < tb[j1] {
						b1 = 0
					}
					if x2[fb[j2]] < tb[j2] {
						b2 = 0
					}
					if x3[fb[j3]] < tb[j3] {
						b3 = 0
					}
					j0 = 2*j0 + 1 + b0
					j1 = 2*j1 + 1 + b1
					j2 = 2*j2 + 1 + b2
					j3 = 2*j3 + 1 + b3
				}
				out[i] += lb[j0-inner]
				out[i+1] += lb[j1-inner]
				out[i+2] += lb[j2-inner]
				out[i+3] += lb[j3-inner]
			}
			for ; i < hi; i++ {
				out[i] += lb[descend(X[i], fb, tb, depth)-inner]
			}
		}
	})
}

// SplitsScanned returns how many split candidates the fit enumerated: each
// node that looked for a split adds its rows less one, per feature.
func (m *Model) SplitsScanned() int64 { return m.scanned }

// splits calls visit with the index of every real split node, tree by tree
// and each tree in preorder — the order a pointer-tree walk visits them,
// which fixes the order FeatureImportance sums gains in.
func (m *Model) splits(visit func(j int)) {
	inner := 1<<m.depth - 1
	var walk func(root, j int)
	walk = func(root, j int) {
		if j < inner && m.split[root+j] {
			visit(root + j)
			walk(root, 2*j+1)
			walk(root, 2*j+2)
		}
	}
	for root := 0; root < len(m.split); root += inner {
		walk(root, 0)
	}
}

// Cuts returns, per feature up to the last one any tree splits on, the
// distinct cuts of its splits ascending (nil for a feature none splits
// on), gathered from the split nodes on each call. Every node compares one
// feature's code with one of that feature's cuts, so two rows whose codes
// are, feature by feature, not below the same number of cuts take the
// same branch at every node of every tree and predict bitwise the same.
func (m *Model) Cuts() [][]uint16 {
	var cuts [][]uint16
	for j, s := range m.split {
		if s {
			f := int(m.feats[j])
			for len(cuts) <= f {
				cuts = append(cuts, nil)
			}
			cuts[f] = append(cuts[f], m.cut[j])
		}
	}
	for f, c := range cuts {
		slices.Sort(c)
		cuts[f] = slices.Compact(c)
	}
	return cuts
}

// PredictRows predicts the given rows of the coded matrix q, whose columns
// from col are the model's features, into out (len(out) == len(rows)).
func (m *Model) PredictRows(q *score.Codes, col int, rows []int32, out []float64) {
	walk(m, m.cut, q, col, rows, 0, out, math.Inf(1))
}

// PredictCodes predicts every row of the coded matrix q into out
// (len(out) == q.N) on the engine's workers (nil engine: serial); the
// outputs are bitwise identical for any worker count.
func (m *Model) PredictCodes(e *score.Engine, q *score.Codes, out []float64) {
	e.MapChunks(q.N, func(lo, hi int) {
		walk[int](m, m.cut, q, 0, nil, lo, out[lo:hi], math.Inf(1))
	})
}

// PredictBatchQuantizedOnInto is PredictCodes over a matrix coded apart
// from the model's (its columns' values other than the fit's): each call
// recounts every threshold into q's values first. No tuning run
// calls it; it serves the perf harness's coded probe.
func (m *Model) PredictBatchQuantizedOnInto(e *score.Engine, q *score.Codes, out []float64) {
	cut := make([]uint16, len(m.cut))
	for j, s := range m.split {
		if s {
			cut[j] = q.Below(int(m.feats[j]), m.thresh[j])
		}
	}
	e.MapChunks(q.N, func(lo, hi int) {
		walk[int](m, cut, q, 0, nil, lo, out[lo:hi], math.Inf(1))
	})
}

// PredictCodedBounded predicts rows idxs of a rank-coded pool into out
// (len(out) == len(idxs)) for a caller that only wants predictions not
// above bound: a row is abandoned, and reported as
// +Inf, at the first tree after which its prediction is certain to exceed
// bound; every other row gets its exact prediction, its trees
// accumulated in ensemble order. bound = +Inf abandons nothing. It returns
// the tree nodes the rows visited and how many rows it abandoned.
//
// Soundness. After t trees the row's partial sum is p; the finished sum P
// adds one leaf of each remaining tree, so in real arithmetic
// P >= p + S_t with S_t the sum of those trees' smallest leaves. In
// floating point three things stand between the computed p + sufMin[t]
// and the computed P: the rounding of the remaining additions of P, the
// rounding inside sufMin[t], and the rounding of this comparison's own
// add and subtract. Each of those is at most 2^-53 times the magnitude of
// the sum involved, every such magnitude is at most reach = |base| +
// Σ_u max|leaf_u|, and there are fewer than 2·(trees+2) of them; slack is
// reach·(trees+2)·2^-50, four times their total. So
// (p + sufMin[t]) − slack > bound implies P > bound at every t. When reach
// overflows, slack is +Inf and nothing is ever abandoned.
func (m *Model) PredictCodedBounded(q *score.Codes, idxs []int, out []float64, bound float64) (nodes, abandoned int) {
	return walk(m, m.cut, q, 0, idxs, 0, out, bound)
}

// walk predicts rows idxs (first, first+1, … if idxs is nil) of q, the
// model's features its columns from col, into out under the node cuts
// cut: PredictBatchOnInto's descent, integer compares on codes, over groups of
// up to 256 rows — each row's codes fetched once a group — that descend
// tree after tree four live rows abreast, each row's trees accumulating in
// ensemble order. After every tree a row PredictCodedBounded's test puts
// above bound becomes +Inf and leaves the live rows, which stay packed;
// at bound = +Inf the test is skipped. It returns the nodes visited and
// the rows abandoned, summed once a tree.
func walk[I int | int32](m *Model, cut []uint16, q *score.Codes, col int, idxs []I, first int, out []float64, bound float64) (nodes, abandoned int) {
	depth, rounds := m.depth, m.Rounds()
	inner, leafN := 1<<depth-1, 1<<depth
	check := !math.IsInf(bound, 1)
	var pos [256]int32 // per live row: its index in the group
	var rows [256][]uint16
	var acc [256]float64
	for g := 0; g < len(out); g += len(pos) {
		o := out[g:min(g+len(pos), len(out))]
		for k := range o {
			r := first + g + k
			if idxs != nil {
				r = int(idxs[g+k])
			}
			pos[k], rows[k], acc[k] = int32(k), q.Row(r)[col:], m.base
		}
		n := len(o)
		for t := 0; t < rounds && n > 0; t++ {
			nodes += n * depth
			fb := m.feats[t*inner : (t+1)*inner]
			cb := cut[t*inner : (t+1)*inner : (t+1)*inner]
			lb := m.leaves[t*leafN : (t+1)*leafN : (t+1)*leafN]
			i := 0
			for ; i+4 <= n; i += 4 {
				c0, c1, c2, c3 := rows[i], rows[i+1], rows[i+2], rows[i+3]
				j0, j1, j2, j3 := 0, 0, 0, 0
				for d := 0; d < depth; d++ {
					b0, b1, b2, b3 := 1, 1, 1, 1
					if c0[fb[j0]] < cb[j0] {
						b0 = 0
					}
					if c1[fb[j1]] < cb[j1] {
						b1 = 0
					}
					if c2[fb[j2]] < cb[j2] {
						b2 = 0
					}
					if c3[fb[j3]] < cb[j3] {
						b3 = 0
					}
					j0 = 2*j0 + 1 + b0
					j1 = 2*j1 + 1 + b1
					j2 = 2*j2 + 1 + b2
					j3 = 2*j3 + 1 + b3
				}
				acc[i] += lb[j0-inner]
				acc[i+1] += lb[j1-inner]
				acc[i+2] += lb[j2-inner]
				acc[i+3] += lb[j3-inner]
			}
			for ; i < n; i++ {
				acc[i] += lb[descend(rows[i], fb, cb, depth)-inner]
			}
			if check {
				rest, kept := m.sufMin[t+1], 0
				for k := range n {
					if acc[k]+rest-m.slack > bound {
						o[pos[k]] = math.Inf(1)
					} else {
						pos[kept], rows[kept], acc[kept] = pos[k], rows[k], acc[k]
						kept++
					}
				}
				abandoned += n - kept
				n = kept
			}
		}
		for k := range n {
			o[pos[k]] = acc[k]
		}
	}
	return nodes, abandoned
}

// Rounds returns the number of trees in the ensemble.
func (m *Model) Rounds() int { return len(m.leaves) >> m.depth }

// FeatureImportance returns gain-based importances over dim features,
// normalized to sum to 1 (all zeros if the model never split).
func (m *Model) FeatureImportance(dim int) []float64 {
	gains := make([]float64, dim)
	m.splits(func(j int) {
		if f := int(m.feats[j]); f < dim {
			gains[f] += m.gain[j]
		}
	})
	total := 0.0
	for _, g := range gains {
		total += g
	}
	if total > 0 {
		for i := range gains {
			gains[i] /= total
		}
	}
	return gains
}
