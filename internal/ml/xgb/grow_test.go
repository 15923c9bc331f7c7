package xgb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// randomMatrix builds an n×dim matrix whose columns mix continuous values,
// heavy ties (few distinct levels), and constant columns — the cases where
// tie-break and distinct-adjacent-value rules decide the grown tree.
func randomMatrix(rng *rand.Rand, n, dim int) [][]float64 {
	X := make([][]float64, n)
	kind := make([]int, dim)
	for f := range kind {
		kind[f] = rng.IntN(3)
	}
	for i := range X {
		X[i] = make([]float64, dim)
		for f := 0; f < dim; f++ {
			switch kind[f] {
			case 0: // continuous
				X[i][f] = rng.NormFloat64()
			case 1: // tie-heavy: 3 levels
				X[i][f] = float64(rng.IntN(3))
			default: // constant column
				X[i][f] = 7.5
			}
		}
	}
	return X
}

// junkComplete returns a complete tree of the given depth whose every
// entry holds noise, so a grower that left any slot unwritten shows.
func junkComplete(rng *rand.Rand, depth int) complete {
	c := newComplete(depth)
	for j := range c.feats {
		c.feats[j], c.cut[j], c.thresh[j], c.gain[j], c.split[j] = int32(rng.IntN(9)), uint16(rng.IntN(9)), rng.NormFloat64(), rng.NormFloat64(), rng.IntN(2) == 0
	}
	for k := range c.leaves {
		c.leaves[k] = rng.NormFloat64()
	}
	return c
}

// sameComplete asserts two complete trees agree entry by entry, bitwise:
// features, cuts, thresholds, gains, real-split marks and leaf values.
func sameComplete(t *testing.T, label string, want, got complete) {
	t.Helper()
	if len(want.feats) != len(got.feats) || len(want.leaves) != len(got.leaves) {
		t.Fatalf("%s: %d nodes and %d leaves, want %d and %d", label, len(got.feats), len(got.leaves), len(want.feats), len(want.leaves))
	}
	for j := range want.feats {
		if want.feats[j] != got.feats[j] || want.cut[j] != got.cut[j] || math.Float64bits(want.thresh[j]) != math.Float64bits(got.thresh[j]) ||
			math.Float64bits(want.gain[j]) != math.Float64bits(got.gain[j]) || want.split[j] != got.split[j] {
			t.Fatalf("%s: node %d is (feature %d, cut %d, threshold %v, gain %v, split %v), want (%d, %d, %v, %v, %v)", label, j,
				got.feats[j], got.cut[j], got.thresh[j], got.gain[j], got.split[j], want.feats[j], want.cut[j], want.thresh[j], want.gain[j], want.split[j])
		}
	}
	for k := range want.leaves {
		if math.Float64bits(want.leaves[k]) != math.Float64bits(got.leaves[k]) {
			t.Fatalf("%s: leaf %d is %v, want %v", label, k, got.leaves[k], want.leaves[k])
		}
	}
}

// TestGrowerMatchesReference: the pre-sorted trainer must write, entry by
// entry, the complete tree the oracle encoder makes of the reference
// exact-greedy trainer's tree — same split features, cuts (its thresholds
// counted into the codes' values), thresholds, gains, real-split
// marks and scaled leaf values, bitwise — across randomized data
// with ties and constant columns, and on the inputs where counting rows for
// hessians or reading the side from the winning column could drift from the
// reference: fractional MinChildWeight, Lambda 0, duplicated rows, one or
// two rows, a lone outlier, and split midpoints that round onto a value or
// overflow. One grower serves every case, reset onto matrices that grow
// and shrink in rows and columns, so every tree also grows from storage
// an earlier matrix left stale. Each random trial grows at MinChildWeight
// 0, 1e-12 and 1, and the three trees must be the same arrays bit for bit:
// every candidate leaves a row, a hessian sum of at least 1, on each side,
// so any weight at or below 1 admits every split and 0 needs no clamp.
func TestGrowerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	var gw grower
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(80)
		dim := 1 + rng.IntN(8)
		X := randomMatrix(rng, n, dim)
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		p := Params{MaxDepth: 1 + rng.IntN(5), Lambda: rng.Float64(), Gamma: rng.Float64() * 0.1}
		depth, scale := p.MaxDepth+rng.IntN(2), 0.05+rng.Float64()
		var first complete
		for k, mcw := range []float64{0, 1e-12, 1} {
			p.MinChildWeight = mcw
			label := fmt.Sprintf("trial %d, MinChildWeight %g", trial, mcw)
			got := growerMatches(t, label, rng, &gw, X, g, p, depth, scale)
			if k == 0 {
				first = got
			} else {
				sameComplete(t, label, first, got)
			}
		}
	}

	v := 1.0
	vn := math.Nextafter(v, math.Inf(1)) // (v+vn)/2 rounds to even: onto v
	top := math.Nextafter(math.MaxFloat64, 0)
	dup := randomMatrix(rng, 10, 3)
	dup = append(dup, dup[3], dup[3], dup[7], dup[0])
	lone := randomMatrix(rng, 12, 2)
	for i := range lone {
		lone[i][0] = 7
	}
	lone[5][0] = 3
	edges := []struct {
		name string
		X    [][]float64
	}{
		{"one row", randomMatrix(rng, 1, 3)},
		{"two rows", randomMatrix(rng, 2, 3)},
		{"duplicated rows", dup},
		{"all equal but one", lone},
		{"midpoint rounds onto v", [][]float64{{v, 0}, {vn, 1}, {vn, 2}, {v, 1}, {vn, 0}, {v, 2}}},
		{"v+vn overflows", [][]float64{{top, -top, 0}, {math.MaxFloat64, -math.MaxFloat64, 1}, {top, -math.MaxFloat64, 2}, {math.MaxFloat64, -top, 1}}},
	}
	opts := []Params{
		{MaxDepth: 3, MinChildWeight: 0.5, Lambda: 1},
		{MaxDepth: 3, MinChildWeight: 2.5, Lambda: 1},
		{MaxDepth: 4, MinChildWeight: 1, Lambda: 0},
		{MaxDepth: 4, MinChildWeight: 0.5, Lambda: 0},
	}
	for _, e := range edges {
		for oi, p := range opts {
			for draw := 0; draw < 8; draw++ {
				g := make([]float64, len(e.X))
				for i := range g {
					g[i] = rng.NormFloat64()
				}
				depth, scale := p.MaxDepth+rng.IntN(2), 0.05+rng.Float64()
				growerMatches(t, fmt.Sprintf("%s, options %d, draw %d", e.name, oi, draw), rng, &gw, e.X, g, p, depth, scale)
			}
		}
	}
}

// growerMatches grows one tree with the reference trainer (unit hessians)
// and with gw, reset onto X's rows coded by discovery, into a destination depth levels deep (at
// least MaxDepth) with leaves scaled by scale, and asserts the grower
// reports the reference's depth, writes the oracle encoding of the
// reference tree, walks every training row's codes to the reference's
// scaled prediction, and sets leafOut to each training row's own unscaled
// prediction. It returns the tree the grower wrote.
func growerMatches(t *testing.T, label string, rng *rand.Rand, gw *grower, X [][]float64, g []float64, p Params, depth int, scale float64) complete {
	t.Helper()
	n, dim := len(X), len(X[0])
	h := make([]float64, n)
	for i := range h {
		h[i] = 1
	}
	ref := referenceGrow(X, g, h, identity(n), identity(dim), p)
	leaf := make([]float64, n)
	got := junkComplete(rng, depth)
	q, rows := codesOf(X)
	gw.reset(q, rows)
	if d := gw.grow(g, p, scale, got, leaf); d != ref.Depth() {
		t.Fatalf("%s: grow reached depth %d, reference %d", label, d, ref.Depth())
	}
	sameComplete(t, label, ref.FillComplete(depth, scale, q), got)

	for i, x := range X {
		if w, g := scale*ref.Predict(x), walkComplete(got, q.Row(i)); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: row %d: reference %v, presorted %v", label, i, w, g)
		}
	}
	for r, x := range X {
		if w := ref.Predict(x); math.Float64bits(leaf[r]) != math.Float64bits(w) {
			t.Fatalf("%s: leafOut[%d] = %v, Predict = %v", label, r, leaf[r], w)
		}
	}
	return got
}
