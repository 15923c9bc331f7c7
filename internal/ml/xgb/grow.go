package xgb

import (
	"math"
	"math/bits"
	"slices"

	"ceal/internal/score"
)

// This file is the tree trainer: CART regression trees grown with
// XGBoost-style second-order gradient statistics, exact greedy splitting
// with the gain
//
//	G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) − γ
//
// and leaf weights −G/(H+λ). The training rows are static across every
// round and node of a boosted fit, so a grower sorts each feature column's
// rank codes once per fit and grows trees by stably partitioning the
// sorted columns down the tree: per-node split enumeration is a linear
// scan, with no per-node sort. Each tree is written straight into its
// complete-tree form (see complete), the only form a Model keeps.
//
// The grown trees are value-identical to the per-node-sort reference
// trainer of the package tests on the rows' float values: same split
// feature, threshold and gain at every node, same leaf values, bit for
// bit. Codes rank their column's values, so both trainers see one order
// and one set of ties. That suffices because both trainers share one
// tie-break contract (rows ordered by (value, training row) within a
// column, splits only between distinct adjacent values,
// the gainBeats margin to replace the incumbent, columns reduced in
// feature order) and because stable partition preserves exactly that
// order in every descendant node, so each floating-point accumulation
// visits rows in the same sequence the reference sort produces.

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

// pair is one entry of a sorted column: a training row's code in that
// column, and the row's position among the training rows.
type pair struct {
	c uint16
	r int32
}

// minSplitFanWork gates per-node column fan-out: below this many
// row×column scan steps the goroutine hand-off costs more than the scans
// it overlaps, so small nodes enumerate serially. Purely a performance
// threshold — results are bitwise identical either way, because each
// column writes only its own candidate slot and the cross-column reduce
// is always serial in feature order.
const minSplitFanWork = 4096

// grower grows trees over one set of training rows, whose feature columns
// it holds pre-sorted: per feature, every row's (code, row) pair in (code,
// row) order, so scans read codes contiguously and nothing reads the rows
// again; a split's threshold reads two values of its column's table. The
// zero grower holds no rows; reset loads some, and
// every tree of a boosted fit grows from it. Reset again for the next
// fit: the grower keeps its storage, so a refit on no more rows and
// columns allocates none. A grower is not safe for concurrent use.
//
// Its loss is squared error, whose hessian is 1 for every row, so a
// node's hessian sum is its row count: the scan at the k-th pair of a
// segment has k+1 rows on its left. Every candidate leaves at least one
// row on each side, so a MinChildWeight at or below 1 admits every split.
type grower struct {
	eng *score.Engine // fans the sorts and split enumeration across columns; nil = serial
	q   *score.Codes  // the training rows' matrix: its columns' values

	// The sorted columns, then two working sets laid out alike: dim
	// columns of n pairs each. The root reads cols; a node at depth d > 0
	// reads buf[d%2], and each node partitions into buf[(d+1)%2] for its
	// children, so nothing copies back.
	cols    []pair
	buf     [2][]pair
	rowsOrd []int32 // the node's rows in ascending row order (leaf values, sums); one per matrix row
	rowsAux []int32
	left    []bool // per-row side marks for the current partition

	best []colBest // per column: its best split candidate at the node

	task growTask // per-grow recursion state, reused across calls

	// scanned is how many split candidates the grower has enumerated over
	// all its grow calls: each node that looks for a split adds its rows
	// less one, per feature column.
	scanned int64
}

// reset loads rows of q, row rows[k] as training row k: it sorts every
// feature column into the grower's own storage, fanning the per-column
// sorts across e (nil: serial), which also fans later split enumeration.
// The grower holds q until the next reset. Storage that is too small is
// replaced as resize replaces it, so a grower refitted on accumulating
// samples reallocates only a few times.
func (gw *grower) reset(e *score.Engine, q *score.Codes, rows []int32) {
	n, dim := len(rows), q.Dim
	gw.eng, gw.q = e, q
	pairs, ord := resize(gw.cols, 3*n*dim), resize(gw.rowsOrd, 2*n)
	gw.cols, gw.buf = pairs[:n*dim], [2][]pair{pairs[n*dim : 2*n*dim], pairs[2*n*dim:]}
	gw.rowsOrd, gw.rowsAux = ord[:n], ord[n:]
	gw.left = resize(gw.left, n)
	gw.best = resize(gw.best, dim)
	for k, r := range rows {
		for f, c := range q.Row(int(r)) {
			gw.cols[f*n+k] = pair{c, int32(k)}
		}
	}
	e.Tasks(dim, func(f int) {
		slices.SortFunc(gw.cols[f*n:(f+1)*n], func(a, b pair) int {
			if a.c != b.c {
				return int(a.c) - int(b.c)
			}
			return int(a.r - b.r)
		})
	})
}

// colBest is a column's best split candidate at a node: its gain, and its
// position in the node's segment of the sorted column — the split falls
// between that entry and the next.
type colBest struct {
	gain  float64
	at    int
	found bool
}

// complete is one tree laid out as a complete binary tree of uniform
// depth, in heap order: node j's children sit at 2j+1 and 2j+2, so descent
// is pure index arithmetic with no child pointers to load. feats, cut,
// thresh, gain and split hold the 2^depth-1 inner nodes, leaves the
// 2^depth leaf values. Descend with, per level: left (2j+1) when a row's
// code at feats[j] is below cut[j] (its value below thresh[j]), else right
// (2j+2); after depth levels the leaf is leaves[j-(2^depth-1)].
//
// A leaf shallower than depth is padded: every node below it splits
// feature 0 at cut 0 and threshold 0 with gain 0, and every leaf slot
// below it holds its value, so any route reaches it. split marks the real
// split nodes; padding is never inferred from feature 0 and threshold 0,
// which a real split can have too.
type complete struct {
	feats  []int32
	cut    []uint16
	thresh []float64
	gain   []float64
	split  []bool
	leaves []float64
}

// grow grows a tree over every row and feature column of the loaded
// matrix, with gradients g and every hessian 1, and writes it into dst, a
// complete tree of at least p.MaxDepth levels, with its leaf values
// multiplied by scale (a boosting learning rate: the one multiplication
// prediction would perform). It returns the depth the tree reached, 0 for
// a single leaf. If leafOut is non-nil (length = matrix rows) every row's
// entry is set to its leaf's unscaled value — the tree's prediction for
// that row, letting boosting update its training predictions without
// walking the tree.
func (gw *grower) grow(g []float64, p Params, scale float64, dst complete, leafOut []float64) int {
	depth := bits.Len(uint(len(dst.feats)))
	if n := 1<<depth - 1; len(dst.feats) != n || len(dst.cut) != n || len(dst.thresh) != n || len(dst.gain) != n ||
		len(dst.split) != n || len(dst.leaves) != n+1 || depth < p.MaxDepth {
		panic("xgb: grow's destination is not a complete tree of at least MaxDepth levels")
	}
	for i := range gw.rowsOrd {
		gw.rowsOrd[i] = int32(i)
	}
	t := &gw.task
	*t = growTask{gw: gw, g: g, p: p, leafOut: leafOut, dst: dst, depth: depth, scale: scale}
	reached := t.grow(0, len(gw.rowsOrd), 0, 0)
	*t = growTask{} // drop the g, leafOut and dst references
	return reached
}

// growTask is one grow call's recursion state.
type growTask struct {
	gw      *grower
	g       []float64
	p       Params
	leafOut []float64
	dst     complete
	depth   int // dst's
	scale   float64
}

// grow builds the node at heap index j, depth depth, over segment [lo, hi)
// of every working array, and returns the deepest level its subtree
// reaches.
func (t *growTask) grow(lo, hi, depth, j int) int {
	gw, p := t.gw, t.p
	var gSum float64
	for _, r := range gw.rowsOrd[lo:hi] {
		gSum += t.g[r]
	}
	hSum := float64(hi - lo) // a sum of ones, exact below 2^53
	leafValue := -gSum / (hSum + p.Lambda)
	makeLeaf := func() int {
		if t.leafOut != nil {
			for _, r := range gw.rowsOrd[lo:hi] {
				t.leafOut[r] = leafValue
			}
		}
		t.leaf(j, depth, leafValue)
		return depth
	}
	if depth >= p.MaxDepth || hi-lo < 2 {
		return makeLeaf()
	}

	// Split enumeration: each column scans its own sorted segment and
	// records its best candidate in its own slot; the reduce below is
	// serial in feature order, so candidate selection is independent of
	// whether (and how wide) the scans fanned out. The serial path calls
	// the method directly — a closure here escapes per node, which at tree
	// depth dominates a fit's allocation profile.
	parentScore := gSum * gSum / (hSum + p.Lambda)
	n, dim := len(gw.rowsOrd), len(gw.best)
	src, dst := gw.cols, gw.buf[(depth+1)%2]
	if depth > 0 {
		src = gw.buf[depth%2]
	}
	fan := gw.eng != nil && (hi-lo)*dim >= minSplitFanWork
	gw.scanned += int64(hi-lo-1) * int64(dim)
	if fan {
		gw.eng.Tasks(dim, func(f int) { t.scanCol(f, src[f*n+lo:f*n+hi], gSum, hSum, parentScore) })
	} else {
		for f := 0; f < dim; f++ {
			t.scanCol(f, src[f*n+lo:f*n+hi], gSum, hSum, parentScore)
		}
	}
	bestGain := p.Gamma
	bestFeature := -1
	for f, c := range gw.best {
		if c.found && gainBeats(c.gain, bestGain, parentScore) {
			bestGain, bestFeature = c.gain, f
		}
	}
	if bestFeature < 0 {
		return makeLeaf()
	}
	// The threshold is the midpoint of the winning candidate's two values,
	// the cut the count of the column's values below it.
	seg, at := src[bestFeature*n+lo:bestFeature*n+hi], gw.best[bestFeature].at
	bestThreshold := (gw.q.Value(bestFeature, seg[at].c) + gw.q.Value(bestFeature, seg[at+1].c)) / 2
	bestCut := gw.q.Below(bestFeature, bestThreshold)

	// Stable partition: mark each row's side once — code < cut, the
	// reference's own value < threshold test — then split every working
	// array in a single order-preserving pass, so children keep both the
	// (code, row) column order and the ascending row order. The side is
	// never inferred from the split position: the midpoint can round onto
	// a value or overflow, and then the two disagree.
	nl := 0
	for _, pr := range seg {
		goLeft := pr.c < bestCut
		gw.left[pr.r] = goLeft
		if goLeft {
			nl++
		}
	}
	if nl == 0 || nl == hi-lo {
		return makeLeaf()
	}
	stablePartition(gw.left, gw.rowsOrd[lo:hi], gw.rowsAux[:hi-lo], nl, func(r int32) int32 { return r })
	copy(gw.rowsOrd[lo:hi], gw.rowsAux[:hi-lo])
	switch {
	case depth+1 >= p.MaxDepth:
		// Both children are leaves, which read only rowsOrd.
	case fan:
		gw.eng.Tasks(dim, func(f int) { t.partCol(src[f*n+lo:f*n+hi], dst[f*n+lo:f*n+hi], nl) })
	default:
		for f := 0; f < dim; f++ {
			t.partCol(src[f*n+lo:f*n+hi], dst[f*n+lo:f*n+hi], nl)
		}
	}
	d := t.dst
	d.feats[j], d.cut[j], d.thresh[j], d.gain[j], d.split[j] = int32(bestFeature), bestCut, bestThreshold, bestGain, true
	return max(t.grow(lo, lo+nl, depth+1, 2*j+1), t.grow(lo+nl, hi, depth+1, 2*j+2))
}

// leaf writes a leaf of value v at heap index j, depth depth: a leaf slot
// at dst's full depth, else the padding subtree below j. The subtree's
// nodes on each level are contiguous, twice as many as on the level above.
func (t *growTask) leaf(j, depth int, v float64) {
	d, span := t.dst, 1
	for ; depth < t.depth; depth++ {
		clear(d.feats[j : j+span])
		clear(d.cut[j : j+span])
		clear(d.thresh[j : j+span])
		clear(d.gain[j : j+span])
		clear(d.split[j : j+span])
		j, span = 2*j+1, 2*span
	}
	sv, lb := t.scale*v, d.leaves[j-len(d.feats):][:span]
	for k := range lb {
		lb[k] = sv
	}
}

// scanCol enumerates split candidates in seg, feature column f's node
// segment, recording the column's best in its own slot. Two shortcuts
// leave the result exact: a sorted segment whose ends are equal holds one
// value and so no candidate, and when parentScore >= 0, gainBeats's
// margin is too, so no gain at or below best can beat it.
func (t *growTask) scanCol(f int, seg []pair, gSum, hSum, parentScore float64) {
	gw, g, mcw, lambda := t.gw, t.g, t.p.MinChildWeight, t.p.Lambda
	if seg[0].c == seg[len(seg)-1].c {
		gw.best[f].found = false
		return
	}
	best, at, found := t.p.Gamma, 0, false
	var gl float64
	for k := 0; k < len(seg)-1; k++ {
		gl += g[seg[k].r]
		// Split only between distinct feature values.
		if seg[k].c == seg[k+1].c {
			continue
		}
		hl := float64(k + 1)
		gr, hr := gSum-gl, hSum-hl
		if hl < mcw || hr < mcw {
			continue
		}
		gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parentScore
		if (gain > best || parentScore < 0) && gainBeats(gain, best, parentScore) {
			best, at, found = gain, k, true
		}
	}
	gw.best[f] = colBest{gain: best, at: at, found: found}
}

// partCol stably partitions a column's node segment from src into dst by
// the current side marks.
func (t *growTask) partCol(src, dst []pair, nl int) {
	stablePartition(t.gw.left, src, dst, nl, func(p pair) int32 { return p.r })
}

// stablePartition writes src to dst as its left-marked prefix (nl entries)
// then its right-marked suffix, preserving relative order on both sides.
// row names the row an entry belongs to. Sides alternate unpredictably, so
// the loop selects the slot instead of branching on the side.
func stablePartition[T any](left []bool, src, dst []T, nl int, row func(T) int32) {
	a, b := 0, nl
	for _, e := range src {
		k, l := b, 0
		if left[row(e)] {
			k, l = a, 1
		}
		dst[k] = e
		a += l
		b += 1 - l
	}
}
