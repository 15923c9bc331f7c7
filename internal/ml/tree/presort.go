package tree

import (
	"sort"

	"ceal/internal/score"
)

// This file is the training-side counterpart of the complete-tree batch
// prediction kernel: the exact-greedy splitter of tree.Grow rewritten
// around feature columns that are sorted once per training matrix instead
// of once per node. X is static across every round and node of a boosted
// fit, so a Context pre-sorts each column a single time and
// trees are grown by stably partitioning the sorted index arrays down the
// tree — per-node split enumeration becomes a linear scan, and the
// O(features × n log n) per-node sort disappears entirely.
//
// The grown trees are value-identical to tree.Grow: same split feature,
// threshold and gain at every node, same leaf values, bit for bit. That
// holds because both trainers share one tie-break contract (rows ordered
// by (value, row index) within a column, splits only between distinct
// adjacent values, the gainBeats margin to replace the incumbent, columns
// reduced in feature order) and because stable partition preserves exactly
// that order in every descendant node, so each floating-point accumulation
// visits rows in the same sequence the reference sort produces.

// Context holds the pre-sorted feature columns of one training matrix.
// Build it once per Fit and grow every tree of the ensemble from it; the
// Context itself is immutable after construction and safe for concurrent
// Growers.
type Context struct {
	X      [][]float64
	n, dim int
	sorted [][]int32 // per feature: row indices ordered by (value, row)
}

// NewContext pre-sorts every feature column of X, fanning the per-column
// sorts across the engine (nil engine: serial). X must not be mutated for
// the Context's lifetime.
func NewContext(e *score.Engine, X [][]float64) *Context {
	c := &Context{X: X, n: len(X)}
	if c.n == 0 {
		return c
	}
	c.dim = len(X[0])
	c.sorted = make([][]int32, c.dim)
	e.Tasks(c.dim, func(f int) {
		idx := make([]int32, c.n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, b int) bool {
			if X[idx[a]][f] != X[idx[b]][f] {
				return X[idx[a]][f] < X[idx[b]][f]
			}
			return idx[a] < idx[b]
		})
		c.sorted[f] = idx
	})
	return c
}

// minSplitFanWork gates per-node column fan-out: below this many
// row×column scan steps the goroutine hand-off costs more than the scans
// it overlaps, so small nodes enumerate serially. Purely a performance
// threshold — results are bitwise identical either way, because each
// column writes only its own candidate slot and the cross-column reduce
// is always serial in feature order.
const minSplitFanWork = 4096

// Grower grows trees from a Context, reusing all per-fit scratch across
// calls. A Grower is not safe for concurrent use: boosting reuses one
// across its rounds.
type Grower struct {
	c   *Context
	eng *score.Engine // fans split enumeration across columns; nil = serial

	idx     []int32 // per column: the node's rows, (value,row)-ordered
	aux     []int32 // partition double-buffer, same layout as idx
	rowsOrd []int32 // the node's rows in ascending row order (leaf values, sums)
	rowsAux []int32
	left    []bool // per-row side marks for the current partition

	colGain  []float64 // per column: best candidate gain
	colThr   []float64 // per column: best candidate threshold
	colFound []bool

	slab nodeSlab // chunked node storage shared by every tree this grower grows
	task growTask // per-Grow recursion state, reused across calls
}

// Grower returns a tree grower over the context. e controls per-node
// split-enumeration fan-out (nil: serial).
func (c *Context) Grower(e *score.Engine) *Grower {
	return &Grower{
		c:        c,
		eng:      e,
		idx:      make([]int32, c.n*c.dim),
		aux:      make([]int32, c.n*c.dim),
		rowsOrd:  make([]int32, c.n),
		rowsAux:  make([]int32, c.n),
		left:     make([]bool, c.n),
		colGain:  make([]float64, c.dim),
		colThr:   make([]float64, c.dim),
		colFound: make([]bool, c.dim),
	}
}

// Grow builds a tree over every row and feature column of the context,
// exactly like tree.Grow but without any per-node sorting. If leafOut is
// non-nil (length = context rows) every row's entry is set to its leaf's
// value — the tree's prediction for that row, letting boosting update its
// training predictions without walking the tree again.
func (gw *Grower) Grow(g, h []float64, opt Options, leafOut []float64) *Tree {
	if opt.MinChildWeight <= 0 {
		opt.MinChildWeight = 1e-12
	}
	c := gw.c
	for i := range gw.rowsOrd {
		gw.rowsOrd[i] = int32(i)
	}
	for f, col := range c.sorted {
		copy(gw.idx[f*c.n:(f+1)*c.n], col)
	}
	t := &gw.task
	*t = growTask{gw: gw, g: g, h: h, opt: opt, leafOut: leafOut}
	root := t.grow(0, c.n, 0)
	*t = growTask{} // drop the g/h/leafOut references
	return &Tree{root: root}
}

// growTask is one Grow call's recursion state.
type growTask struct {
	gw      *Grower
	g, h    []float64
	opt     Options
	leafOut []float64
}

// grow builds the node over segment [lo, hi) of every working array.
func (t *growTask) grow(lo, hi, depth int) *node {
	gw, opt := t.gw, t.opt
	X := gw.c.X
	var gSum, hSum float64
	for _, r := range gw.rowsOrd[lo:hi] {
		gSum += t.g[r]
		hSum += t.h[r]
	}
	leafValue := -gSum / (hSum + opt.Lambda)
	makeLeaf := func() *node {
		if t.leafOut != nil {
			for _, r := range gw.rowsOrd[lo:hi] {
				t.leafOut[r] = leafValue
			}
		}
		return gw.slab.alloc(node{leaf: true, value: leafValue})
	}
	if depth >= opt.MaxDepth || hi-lo < 2 {
		return makeLeaf()
	}

	// Split enumeration: each column scans its own sorted segment and
	// records its best candidate in its own slot; the reduce below is
	// serial in feature order, so candidate selection is independent of
	// whether (and how wide) the scans fanned out. The serial path calls
	// the method directly — a closure here escapes per node, which at tree
	// depth dominates a fit's allocation profile.
	parentScore := gSum * gSum / (hSum + opt.Lambda)
	dim := gw.c.dim
	fan := gw.eng != nil && (hi-lo)*dim >= minSplitFanWork
	if fan {
		gw.eng.Tasks(dim, func(f int) { t.scanCol(f, lo, hi, gSum, hSum, parentScore) })
	} else {
		for f := 0; f < dim; f++ {
			t.scanCol(f, lo, hi, gSum, hSum, parentScore)
		}
	}
	bestGain := opt.Gamma
	bestFeature := -1
	for f := 0; f < dim; f++ {
		if gw.colFound[f] && gainBeats(gw.colGain[f], bestGain, parentScore) {
			bestGain, bestFeature = gw.colGain[f], f
		}
	}
	if bestFeature < 0 {
		return makeLeaf()
	}
	bestThreshold := gw.colThr[bestFeature]

	// Stable partition: mark each row's side once, then split every
	// working array in a single order-preserving pass, so children keep
	// both the (value, row) column order and the ascending row order.
	nl := 0
	for _, r := range gw.rowsOrd[lo:hi] {
		goLeft := X[r][bestFeature] < bestThreshold
		gw.left[r] = goLeft
		if goLeft {
			nl++
		}
	}
	if nl == 0 || nl == hi-lo {
		return makeLeaf()
	}
	stablePartition(gw.left, gw.rowsOrd[lo:hi], gw.rowsAux[:hi-lo], nl)
	if fan {
		gw.eng.Tasks(dim, func(f int) { t.partCol(f, lo, hi, nl) })
	} else {
		for f := 0; f < dim; f++ {
			t.partCol(f, lo, hi, nl)
		}
	}
	left := t.grow(lo, lo+nl, depth+1)
	right := t.grow(lo+nl, hi, depth+1)
	return gw.slab.alloc(node{
		feature:   bestFeature,
		threshold: bestThreshold,
		gain:      bestGain,
		left:      left,
		right:     right,
	})
}

// scanCol enumerates split candidates for feature column f over node
// segment [lo, hi), recording the column's best in its own slot.
func (t *growTask) scanCol(f, lo, hi int, gSum, hSum, parentScore float64) {
	gw, opt := t.gw, t.opt
	X := gw.c.X
	base := f * gw.c.n
	seg := gw.idx[base+lo : base+hi]
	best, thr, found := opt.Gamma, 0.0, false
	var gl, hl float64
	for k := 0; k < len(seg)-1; k++ {
		r := seg[k]
		gl += t.g[r]
		hl += t.h[r]
		v, vn := X[r][f], X[seg[k+1]][f]
		// Split only between distinct feature values.
		if v == vn {
			continue
		}
		gr, hr := gSum-gl, hSum-hl
		if hl < opt.MinChildWeight || hr < opt.MinChildWeight {
			continue
		}
		gain := gl*gl/(hl+opt.Lambda) + gr*gr/(hr+opt.Lambda) - parentScore
		if gainBeats(gain, best, parentScore) {
			best, thr, found = gain, (v+vn)/2, true
		}
	}
	gw.colGain[f], gw.colThr[f], gw.colFound[f] = best, thr, found
}

// partCol stably partitions feature column f's node segment by the current
// side marks.
func (t *growTask) partCol(f, lo, hi, nl int) {
	gw := t.gw
	base := f * gw.c.n
	stablePartition(gw.left, gw.idx[base+lo:base+hi], gw.aux[base+lo:base+hi], nl)
}

// stablePartition splits src into its left-marked prefix (nl rows) and
// right-marked suffix, preserving relative order on both sides, via dst.
func stablePartition(left []bool, src, dst []int32, nl int) {
	a, b := 0, nl
	for _, r := range src {
		if left[r] {
			dst[a] = r
			a++
		} else {
			dst[b] = r
			b++
		}
	}
	copy(src, dst)
}

// nodeSlab hands out tree nodes from chunked backing arrays, replacing
// one heap allocation per node with one per chunk. Chunks are never
// reused or truncated: a filled chunk stays alive exactly as long as the
// trees pointing into it. Node allocation happens only on the (serial)
// grow recursion, never inside fanned column tasks.
type nodeSlab struct {
	cur []node
}

const slabChunk = 512

func (s *nodeSlab) alloc(n node) *node {
	if len(s.cur) == cap(s.cur) {
		s.cur = make([]node, 0, slabChunk)
	}
	s.cur = append(s.cur, n)
	return &s.cur[len(s.cur)-1]
}
