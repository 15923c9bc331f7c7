package xgb

import (
	"slices"
	"sort"

	"ceal/internal/score"
)

// refTree is a regression tree grown by referenceGrow: the pointer-tree
// form the reference trainer grows.
type refTree struct {
	root *refNode
}

type refNode struct {
	feature   int
	threshold float64
	gain      float64 // split gain (for feature importance)
	left      *refNode
	right     *refNode
	leaf      bool
	value     float64
}

// referenceGrow builds a tree from rows (indices into X/g/h) considering
// only the given feature columns. g and h are the per-sample first and
// second derivatives of the loss at the current prediction; p supplies
// MaxDepth, MinChildWeight, Lambda and Gamma.
//
// referenceGrow is the reference exact-greedy trainer: it re-sorts every
// feature column at every node, O(features × n log n) per node. The
// pre-sorted grower grows value-identical trees (same split feature,
// threshold and gain at every node) in a linear scan per node;
// referenceGrow is the independent oracle the equivalence tests compare
// it against.
//
// Determinism/tie-break contract (shared with the pre-sorted trainer):
// within a feature column rows are ordered by (value, row index) — a
// stable, input-order-independent total order — candidate splits are
// evaluated only between distinct adjacent values, and a candidate
// replaces the incumbent only when its gain clears the incumbent's by the
// gainBeats margin, so the first best-gain candidate in (column order,
// value order) wins both exact ties and near-ties.
func referenceGrow(X [][]float64, g, h []float64, rows []int, cols []int, p Params) *refTree {
	if p.MinChildWeight <= 0 {
		p.MinChildWeight = 1e-12
	}
	return &refTree{root: refGrowNode(X, g, h, rows, cols, p, 0)}
}

func refGrowNode(X [][]float64, g, h []float64, rows []int, cols []int, p Params, depth int) *refNode {
	var gSum, hSum float64
	for _, r := range rows {
		gSum += g[r]
		hSum += h[r]
	}
	leaf := &refNode{leaf: true, value: -gSum / (hSum + p.Lambda)}
	if depth >= p.MaxDepth || len(rows) < 2 {
		return leaf
	}

	parentScore := gSum * gSum / (hSum + p.Lambda)
	bestGain := p.Gamma
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
			if hl < p.MinChildWeight || hr < p.MinChildWeight {
				continue
			}
			gain := gl*gl/(hl+p.Lambda) + gr*gr/(hr+p.Lambda) - parentScore
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
	return &refNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		gain:      bestGain,
		left:      refGrowNode(X, g, h, leftRows, cols, p, depth+1),
		right:     refGrowNode(X, g, h, rightRows, cols, p, depth+1),
	}
}

// Predict returns the tree's output for feature vector x.
func (t *refTree) Predict(x []float64) float64 {
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
func (t *refTree) Splits(visit func(feature int, threshold, gain float64)) { t.root.splits(visit) }

func (n *refNode) splits(visit func(feature int, threshold, gain float64)) {
	if n.leaf {
		return
	}
	visit(n.feature, n.threshold, n.gain)
	n.left.splits(visit)
	n.right.splits(visit)
}

// refModel is a boosted ensemble of pointer trees, the form the reference
// trainer grows: the oracle every Model is pinned to.
type refModel struct {
	base, eta float64
	trees     []*refTree
}

// Predict walks each pointer tree's nodes: the oracle every shipped predict
// path, walking the complete-tree arrays instead, is pinned to, bitwise.
func (m *refModel) Predict(x []float64) float64 {
	out := m.base
	for _, t := range m.trees {
		out += m.eta * t.Predict(x)
	}
	return out
}

// referenceFit is the test oracle: per-node-sorting referenceGrow and
// per-row pointer-tree Predict updates. FitOn must reproduce its models
// bitwise.
func referenceFit(X [][]float64, y []float64, p Params) *refModel {
	n := len(y)
	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)
	m := &refModel{base: base, eta: p.LearningRate}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	g := make([]float64, n)
	h := make([]float64, n)
	rows, cols := identity(n), identity(len(X[0]))
	for round := 0; round < p.Rounds; round++ {
		for i := 0; i < n; i++ {
			g[i] = pred[i] - y[i]
			h[i] = 1
		}
		t := referenceGrow(X, g, h, rows, cols, p)
		m.trees = append(m.trees, t)
		for i := 0; i < n; i++ {
			pred[i] += p.LearningRate * t.Predict(X[i])
		}
	}
	return m
}

// identity returns [0, n): every row, or every column, of the matrix, for
// the reference trainer, which takes explicit sets.
func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// codesOf codes float rows X by discovery and lists every row: what FitOn
// fits on.
func codesOf(X [][]float64) (*score.Codes, []int32) {
	rows := make([]int32, len(X))
	for i := range rows {
		rows[i] = int32(i)
	}
	return score.QuantizeRows(nil, X), rows
}

// PredictRow predicts one float feature row by the split thresholds: the
// float walk of PredictBatchOnInto, one row at a time, that every coded
// path is pinned to.
func (m *Model) PredictRow(x []float64) float64 {
	depth, rounds := m.depth, m.Rounds()
	inner, leafN := 1<<depth-1, 1<<depth
	out := m.base
	for t := 0; t < rounds; t++ {
		fb := m.feats[t*inner : (t+1)*inner]
		tb := m.thresh[t*inner : (t+1)*inner]
		lb := m.leaves[t*leafN : (t+1)*leafN]
		out += lb[descend(x, fb, tb, depth)-inner]
	}
	return out
}

// Thresholds returns, per feature, the ensemble's distinct split thresholds
// ascending, up to the last feature any tree splits on (nil for a feature
// none splits on), read from the trees' real split nodes (the padding
// compares feature 0 with 0 to no effect).
func (m *Model) Thresholds() [][]float64 {
	var out [][]float64
	m.splits(func(j int) {
		f := int(m.feats[j])
		for len(out) <= f {
			out = append(out, nil)
		}
		out[f] = append(out[f], m.thresh[j])
	})
	for f, thr := range out {
		slices.Sort(thr)
		out[f] = slices.Compact(thr)
	}
	return out
}
