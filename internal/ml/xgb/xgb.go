// Package xgb implements extreme-gradient-boosted regression trees — the
// role xgboost.XGBRegressor plays in the paper (§7.3) — with squared-error
// loss and shrinkage, every round grown on all rows and all columns,
// entirely on the stdlib.
package xgb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

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

// Model is a trained boosted-tree regressor: every tree a complete binary
// tree of one uniform depth (complete) in contiguous arrays with
// per-tree strides — split features, split thresholds, and eta-scaled leaf
// values. Descent is pure index arithmetic — node j's children sit at 2j+1
// and 2j+2, no child indices are loaded — which compiles to a branchless
// select and keeps the whole ensemble cache-resident (a 100-tree depth-4
// ensemble is ~30 KB).
type Model struct {
	base   float64
	depth  int       // the deepest tree's depth, at least 1
	feats  []int32   // per tree: 2^depth-1 heap-ordered split features
	thresh []float64 // same shape as feats
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

	// The model compiled into the code space of the last coded matrix it
	// was compiled for (see Compile), and spare, the
	// compiled arrays of the model this one's arrays were recycled from.
	codedMu sync.Mutex
	coded   *Coded
	spare   []uint16
}

// maxFlatDepth is the deepest ensemble Trainer.Fit accepts: every prediction
// entry point walks the complete-tree padding, whose size doubles per
// level (2^depth slots per tree). Defaults keep ensembles at depth 4.
const maxFlatDepth = 8

// descend walks x down one complete tree (heap-ordered feats and thresh,
// depth levels) and returns the heap index it lands on; the leaf slot is
// that index minus the tree's inner-node count. x and tb are a float row
// and the split thresholds, or a rank-coded row and the compiled cuts.
// Small enough to inline into every caller.
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

// ErrBadTrainingData is returned (wrapped) by Trainer.Fit for rows it
// cannot order or fit: a ragged row, or a NaN/±Inf feature or target.
var ErrBadTrainingData = errors.New("xgb: bad training data")

// FitOn trains a model on feature rows X and targets y with the engine
// supplying training parallelism (nil engine: serial, exactly like
// PredictBatchOnInto): one fit on a fresh Trainer.
func FitOn(e *score.Engine, X [][]float64, y []float64, p Params) (*Model, error) {
	return NewTrainer(e).Fit(X, y, p)
}

// Trainer fits models one after another and keeps its storage between
// fits: one grower, the training predictions, and the arrays of a
// model handed back through Recycle. A Trainer is not safe for concurrent
// use.
type Trainer struct {
	eng   *score.Engine
	gw    grower
	work  []float64 // training predictions, gradients and leaf outputs
	spare *Model    // handed back by Recycle: its arrays back the next fit
}

// NewTrainer returns a Trainer that fits on the engine (nil: serially).
func NewTrainer(e *score.Engine) *Trainer { return &Trainer{eng: e} }

// Recycle hands back a model its owner will never read again: the next
// successful Fit overwrites its arrays, so no call on m or on a Coded
// compiled from it, from any goroutine, may follow. Recycling nil drops
// any spare.
func (t *Trainer) Recycle(m *Model) { t.spare = m }

// Fit trains a model on feature rows X and targets y. Feature columns are
// pre-sorted once — X is static across all rounds — and every round's
// tree is grown on the Trainer's grower by stable partition of the sorted
// columns, straight into the model's complete-tree arrays; per-node split
// enumeration fans across feature columns on the engine. The trained
// model is bitwise identical for any worker count and whatever storage it
// reuses, and value-identical to the reference per-node-sort trainer. The
// rows of X are read, never retained. A fit that fails leaves the spare in
// place.
func (t *Trainer) Fit(X [][]float64, y []float64, p Params) (*Model, error) {
	if p.Rounds <= 0 || p.LearningRate <= 0 {
		return nil, fmt.Errorf("xgb: rounds and learning rate must be positive")
	}
	if p.MaxDepth > maxFlatDepth {
		return nil, fmt.Errorf("xgb: MaxDepth must be at most %d, got %d", maxFlatDepth, p.MaxDepth)
	}
	n := len(y)
	if n == 0 || len(X) != n {
		return nil, fmt.Errorf("xgb: need matching non-empty X (%d) and y (%d)", len(X), n)
	}
	// A NaN would silently break the (value, row) column order the trainer
	// sorts by, so bad rows reject the fit whole.
	dim := len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d", ErrBadTrainingData, i, len(row), dim)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: row %d feature %d is %v", ErrBadTrainingData, i, f, v)
			}
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("%w: row %d target is %v", ErrBadTrainingData, i, y[i])
		}
	}

	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)

	t.gw.reset(t.eng, X)

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
	m := &Model{
		base:   base,
		feats:  resize(old.feats, nodes),
		thresh: resize(old.thresh, nodes),
		leaves: resize(old.leaves, nodes+p.Rounds),
		gain:   resize(old.gain, nodes),
		split:  resize(old.split, nodes),
		sufMin: resize(old.sufMin, p.Rounds+1),
	}
	if old.coded != nil {
		m.spare = old.coded.buf
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
			feats: m.feats[lo:hi], thresh: m.thresh[lo:hi], gain: m.gain[lo:hi], split: m.split[lo:hi],
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

// PredictRow predicts one feature vector: the single-row form of
// PredictBatchOnInto for hot per-index scoring paths (fused pool
// selection) that cannot batch. The leaves are the trees' values
// pre-scaled by eta, and trees accumulate in ensemble order, so the result
// is bitwise identical to walking pointer trees of the same splits.
func (m *Model) PredictRow(x []float64) float64 {
	depth, rounds := m.depth, m.Rounds()
	inner, leafN := 1<<depth-1, 1<<depth
	out := m.base
	for t := 0; t < rounds; t++ {
		fb := m.feats[t*inner : (t+1)*inner]
		tb := m.thresh[t*inner : (t+1)*inner : (t+1)*inner]
		lb := m.leaves[t*leafN : (t+1)*leafN : (t+1)*leafN]
		out += lb[descend(x, fb, tb, depth)-inner]
	}
	return out
}

// PredictBatchOnInto predicts every row of X into out (len(out) ==
// len(X)) on the engine's workers (nil engine: serial) — each row's trees
// accumulate in ensemble order regardless of chunking, so results are
// bitwise identical to per-row PredictRow for any worker count. The walk
// uses the complete-tree ensemble (heap-ordered arrays, eta-scaled
// leaves, branchless fixed-depth descent) and runs four independent rows
// abreast so per-level load latency overlaps across rows instead of
// serializing one level at a time.
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

// Coded is a model compiled into the code space of a coded matrix's
// columns from lo: feature f is column lo+f, and node j compares a row's
// code there with cut[j], the number of values in the column's value table
// below its threshold. Codes are ranks in that table, so code < cut ⇔
// value < threshold, and a NaN — ranked last — is below no cut, the right
// branch the float compare also takes. Read-only once compiled.
type Coded struct {
	m    *Model
	q    *score.Codes
	lo   int
	cut  []uint16   // per node
	cuts [][]uint16 // per feature: its distinct cuts ascending
	buf  []uint16   // backs cut and cuts
}

// Compile compiles the model into q's columns from lo. The model keeps
// its last compilation and serves the same matrix and offset from it.
func (m *Model) Compile(q *score.Codes, lo int) *Coded {
	m.codedMu.Lock()
	defer m.codedMu.Unlock()
	if c := m.coded; c != nil && c.q == q && c.lo == lo {
		return c
	}
	m.coded, m.spare = m.compile(q, lo, m.spare), nil
	return m.coded
}

// compile compiles the model into store's storage when it is large
// enough: a binary search of its value table gives each split node its
// cut, and each feature's cuts, gathered and sorted, its distinct cuts.
// Callers hold codedMu.
func (m *Model) compile(q *score.Codes, lo int, store []uint16) *Coded {
	nodes, nf := len(m.feats), 0
	for j, s := range m.split {
		if s {
			nf = max(nf, int(m.feats[j])+1)
		}
	}
	// A counting sort by feature: off[f+1] is where feature f's next cut
	// goes, so once all are placed feature f's are flat[off[f]:off[f+1]].
	off := make([]int, nf+2)
	for j, s := range m.split {
		if s {
			off[m.feats[j]+2]++
		}
	}
	for f := 2; f < len(off); f++ {
		off[f] += off[f-1]
	}
	c := &Coded{m: m, q: q, lo: lo, buf: resize(store, nodes+off[nf+1]), cuts: make([][]uint16, nf)}
	c.cut = c.buf[:nodes]
	flat := c.buf[nodes:]
	clear(c.cut) // padding: either branch reaches the same leaf
	for j, s := range m.split {
		if !s {
			continue
		}
		f := int(m.feats[j])
		vals, a, b := q.Values(lo+f), 0, len(q.Values(lo+f))
		for a < b {
			if mid := int(uint(a+b) >> 1); vals[mid] < m.thresh[j] {
				a = mid + 1
			} else {
				b = mid
			}
		}
		c.cut[j], flat[off[f+1]] = uint16(a), uint16(a)
		off[f+1]++
	}
	for f := range nf {
		if cuts := flat[off[f]:off[f+1]:off[f+1]]; len(cuts) > 0 {
			slices.Sort(cuts)
			c.cuts[f] = slices.Compact(cuts)
		}
	}
	return c
}

// Cuts returns, per feature up to the last one any tree splits on, the
// distinct cuts of its splits ascending (nil for a feature none splits
// on). Every node compares one feature's code with one of that feature's
// cuts, so two rows whose codes are, feature by feature, not below the
// same number of cuts take the same branch at every node of every tree
// and predict bitwise the same. Shared: callers must not modify it.
func (c *Coded) Cuts() [][]uint16 { return c.cuts }

// PredictRows predicts the given rows of the coded matrix into out
// (len(out) == len(rows)): each the PredictRow value of the row's
// features, bit for bit.
func (c *Coded) PredictRows(rows []int32, out []float64) { walk(c, rows, 0, out, math.Inf(1)) }

// PredictBatchQuantizedOnInto predicts every row of a rank-coded pool into
// out (len(out) == q.N) on the engine's workers (nil engine: serial): the
// coded walk at bound = +Inf, so the outputs are bitwise identical to
// scoring the float rows.
func (m *Model) PredictBatchQuantizedOnInto(e *score.Engine, q *score.Codes, out []float64) {
	c := m.Compile(q, 0)
	e.MapChunks(q.N, func(lo, hi int) {
		walk[int](c, nil, lo, out[lo:hi], math.Inf(1))
	})
}

// PredictCodedBounded predicts rows idxs of a rank-coded pool into out
// (len(out) == len(idxs)) for a caller that only wants predictions not
// above bound: a row is abandoned, and reported as
// +Inf, at the first tree after which its prediction is certain to exceed
// bound; every other row gets the exact PredictRow value, its trees
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
	return walk(m.Compile(q, 0), idxs, 0, out, bound)
}

// walk predicts rows idxs (first, first+1, … if idxs is nil) into out:
// PredictBatchOnInto's descent, integer compares on codes, over groups of
// up to 256 rows — each row's codes fetched once a group — that descend
// tree after tree four live rows abreast, each row's trees accumulating in
// ensemble order. After every tree a row PredictCodedBounded's test puts
// above bound becomes +Inf and leaves the live rows, which stay packed;
// at bound = +Inf the test is skipped. It returns the nodes visited and
// the rows abandoned, summed once a tree.
func walk[I int | int32](c *Coded, idxs []I, first int, out []float64, bound float64) (nodes, abandoned int) {
	m := c.m
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
			pos[k], rows[k], acc[k] = int32(k), c.q.Row(r)[c.lo:], m.base
		}
		n := len(o)
		for t := 0; t < rounds && n > 0; t++ {
			nodes += n * depth
			fb := m.feats[t*inner : (t+1)*inner]
			cb := c.cut[t*inner : (t+1)*inner : (t+1)*inner]
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
