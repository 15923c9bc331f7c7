// Package tree implements CART regression trees grown with XGBoost-style
// second-order gradient statistics: exact greedy splitting with the gain
//
//	G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) − γ
//
// and leaf weights −G/(H+λ).
package tree

import (
	"math"
	"sort"
)

// Options controls tree growth. A Grower's h are all 1, so for it
// MinChildWeight bounds each child's row count: the same number as the sum
// of h, since a sum of k ones is exactly k below 2^53.
type Options struct {
	MaxDepth       int     // maximum depth; 0 means a single leaf
	MinChildWeight float64 // minimum sum of h per child (for a Grower, rows)
	Lambda         float64 // L2 regularization on leaf weights
	Gamma          float64 // minimum gain to accept a split
}

// Tree is a grown regression tree.
type Tree struct {
	root *node
}

type node struct {
	feature   int
	threshold float64
	gain      float64 // split gain (for feature importance)
	left      *node
	right     *node
	leaf      bool
	value     float64
}

// Grow builds a tree from rows (indices into X/g/h) considering only the
// given feature columns. g and h are the per-sample first and second
// derivatives of the loss at the current prediction.
//
// Grow is the reference exact-greedy trainer: it re-sorts every feature
// column at every node, O(features × n log n) per node. The pre-sorted
// Grower in presort.go grows value-identical trees (same
// split feature, threshold and gain at every node) in a linear scan per
// node; Grow is kept as the independent oracle the equivalence property
// tests compare against. It, Tree.Predict and Tree.Splits live outside
// _test.go files because xgb's reference-trainer test calls them from
// another package.
//
// Determinism/tie-break contract (shared with the pre-sorted trainer):
// within a feature column rows are ordered by (value, row index) — a
// stable, input-order-independent total order — candidate splits are
// evaluated only between distinct adjacent values, and a candidate
// replaces the incumbent only when its gain clears the incumbent's by the
// gainBeats margin, so the first best-gain candidate in (column order,
// value order) wins both exact ties and near-ties.
func Grow(X [][]float64, g, h []float64, rows []int, cols []int, opt Options) *Tree {
	if opt.MinChildWeight <= 0 {
		opt.MinChildWeight = 1e-12
	}
	return &Tree{root: grow(X, g, h, rows, cols, opt, 0)}
}

// gainTieEps is the relative margin a split candidate must clear the
// incumbent best gain by. Exact-arithmetic gain ties are common (two
// columns inducing the same or mirrored row partition score identically)
// while the computed gains differ by rounding noise (~n·2⁻⁵³ relative,
// so ≲1e-12 for any node this repo trains on). The margin is orders of
// magnitude above that noise yet far below any gain difference that
// reflects the data, so ties resolve to the first candidate in (column
// order, value order) rather than by the last bit of a float sum. The
// value is part of the trained trees: changing it changes split choices.
const gainTieEps = 1e-9

// gainBeats reports whether a candidate gain improves on the incumbent
// by the tie-break margin, scaled to the node's score magnitudes
// (parentScore anchors the scale even when the gains themselves cancel
// to near zero).
func gainBeats(gain, best, parentScore float64) bool {
	return gain > best+gainTieEps*(parentScore+math.Abs(best)+math.Abs(gain))
}

func grow(X [][]float64, g, h []float64, rows []int, cols []int, opt Options, depth int) *node {
	var gSum, hSum float64
	for _, r := range rows {
		gSum += g[r]
		hSum += h[r]
	}
	leaf := &node{leaf: true, value: -gSum / (hSum + opt.Lambda)}
	if depth >= opt.MaxDepth || len(rows) < 2 {
		return leaf
	}

	parentScore := gSum * gSum / (hSum + opt.Lambda)
	bestGain := opt.Gamma
	bestFeature, bestThreshold := -1, 0.0

	order := make([]int, len(rows))
	for _, f := range cols {
		copy(order, rows)
		sort.Slice(order, func(i, j int) bool {
			if X[order[i]][f] != X[order[j]][f] {
				return X[order[i]][f] < X[order[j]][f]
			}
			return order[i] < order[j]
		})
		var gl, hl float64
		for i := 0; i < len(order)-1; i++ {
			r := order[i]
			gl += g[r]
			hl += h[r]
			// Split only between distinct feature values.
			if X[order[i]][f] == X[order[i+1]][f] {
				continue
			}
			gr, hr := gSum-gl, hSum-hl
			if hl < opt.MinChildWeight || hr < opt.MinChildWeight {
				continue
			}
			gain := gl*gl/(hl+opt.Lambda) + gr*gr/(hr+opt.Lambda) - parentScore
			if gainBeats(gain, bestGain, parentScore) {
				bestGain = gain
				bestFeature = f
				bestThreshold = (X[order[i]][f] + X[order[i+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return leaf
	}

	var leftRows, rightRows []int
	for _, r := range rows {
		if X[r][bestFeature] < bestThreshold {
			leftRows = append(leftRows, r)
		} else {
			rightRows = append(rightRows, r)
		}
	}
	if len(leftRows) == 0 || len(rightRows) == 0 {
		return leaf
	}
	return &node{
		feature:   bestFeature,
		threshold: bestThreshold,
		gain:      bestGain,
		left:      grow(X, g, h, leftRows, cols, opt, depth+1),
		right:     grow(X, g, h, rightRows, cols, opt, depth+1),
	}
}

// Predict returns the tree's output for feature vector x.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Splits calls visit with the feature, threshold and gain of every split
// node in preorder: every comparison Predict can make, and the basis of
// gain-based feature importance.
func (t *Tree) Splits(visit func(feature int, threshold, gain float64)) { splits(t.root, visit) }

func splits(n *node, visit func(feature int, threshold, gain float64)) {
	if n.leaf {
		return
	}
	visit(n.feature, n.threshold, n.gain)
	splits(n.left, visit)
	splits(n.right, visit)
}
