package tree

import (
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/score"
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

// identity returns [0, n): every row, or every column, for the reference
// trainer, which still takes explicit sets.
func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// sameTree asserts two trees agree bitwise: identical predictions on every
// probe, identical shape, identical per-feature gain totals.
func sameTree(t *testing.T, want, got *Tree, probes [][]float64, dim int) {
	t.Helper()
	if want.Depth() != got.Depth() || want.Leaves() != got.Leaves() {
		t.Fatalf("shape mismatch: depth %d vs %d, leaves %d vs %d",
			want.Depth(), got.Depth(), want.Leaves(), got.Leaves())
	}
	for i, x := range probes {
		w, g := want.Predict(x), got.Predict(x)
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("probe %d: reference %v, presorted %v", i, w, g)
		}
	}
	wg := make([]float64, dim)
	gg := make([]float64, dim)
	want.Splits(func(f int, _, gain float64) { wg[f] += gain })
	got.Splits(func(f int, _, gain float64) { gg[f] += gain })
	for f := range wg {
		if math.Float64bits(wg[f]) != math.Float64bits(gg[f]) {
			t.Fatalf("feature %d gain: reference %v, presorted %v", f, wg[f], gg[f])
		}
	}
}

// TestGrowerMatchesReference: the pre-sorted trainer must reproduce the
// reference exact-greedy trainer bitwise — same splits, gains, and leaf
// values — across randomized data with ties and constant columns.
func TestGrowerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(80)
		dim := 1 + rng.IntN(8)
		X := randomMatrix(rng, n, dim)
		g := make([]float64, n)
		h := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64()
			h[i] = 1
		}

		rows, cols := identity(n), identity(dim)
		opt := Options{MaxDepth: 1 + rng.IntN(5), MinChildWeight: float64(rng.IntN(2)), Lambda: rng.Float64(), Gamma: rng.Float64() * 0.1}

		ref := Grow(X, g, h, rows, cols, opt)
		ctx := NewContext(nil, X)
		leaf := make([]float64, n)
		got := ctx.Grower(nil).Grow(g, h, opt, leaf)

		probes := make([][]float64, 0, n+20)
		probes = append(probes, X...)
		for p := 0; p < 20; p++ {
			probes = append(probes, randomMatrix(rng, 1, dim)[0])
		}
		sameTree(t, ref, got, probes, dim)

		// leafOut must carry each training row's own prediction.
		for r, x := range X {
			if w := got.Predict(x); math.Float64bits(leaf[r]) != math.Float64bits(w) {
				t.Fatalf("trial %d: leafOut[%d] = %v, Predict = %v", trial, r, leaf[r], w)
			}
		}
	}
}

// TestGrowerEngineWidthInvariance: a Grower's trees must be bitwise
// identical whether split enumeration runs serially or fans across any
// number of workers.
func TestGrowerEngineWidthInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	// Large enough that (rows × cols) clears minSplitFanWork and the
	// parallel path actually runs.
	n, dim := 1500, 6
	X := randomMatrix(rng, n, dim)
	g := make([]float64, n)
	h := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64()
		h[i] = 1
	}
	opt := Options{MaxDepth: 5, MinChildWeight: 1, Lambda: 1}

	base := NewContext(nil, X).Grower(nil).Grow(g, h, opt, nil)
	if base.Depth() == 0 {
		t.Fatal("degenerate test tree")
	}
	for _, w := range []int{1, 2, 4, 8} {
		e := score.New(w)
		got := NewContext(e, X).Grower(e).Grow(g, h, opt, nil)
		sameTree(t, base, got, X, dim)
	}
}
