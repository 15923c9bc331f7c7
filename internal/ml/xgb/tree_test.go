package xgb

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"ceal/internal/score"
)

// meanTree grows a plain mean-predicting regression tree with the
// reference trainer: gradients −y, unit hessians, Lambda 0.
func meanTree(X [][]float64, y []float64, p Params) *refTree {
	g := make([]float64, len(y))
	h := make([]float64, len(y))
	for i := range y {
		g[i] = -y[i]
		h[i] = 1
	}
	p.Lambda = 0
	return referenceGrow(X, g, h, identity(len(y)), identity(len(X[0])), p)
}

func TestPerfectStepSplit(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []float64{5, 5, 5, 9, 9, 9}
	tr := meanTree(X, y, Params{MaxDepth: 3, MinChildWeight: 1})
	for i, x := range X {
		if got := tr.Predict(x); math.Abs(got-y[i]) > 1e-12 {
			t.Fatalf("Predict(%v) = %v, want %v", x, got, y[i])
		}
	}
	if tr.Leaves() != 2 {
		t.Fatalf("Leaves = %d, want 2 (single split suffices)", tr.Leaves())
	}
}

func TestDepthZeroIsSingleLeafMean(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{2, 4, 6, 8}
	tr := meanTree(X, y, Params{MaxDepth: 0})
	if tr.Leaves() != 1 || tr.Depth() != 0 {
		t.Fatalf("leaves=%d depth=%d, want single leaf", tr.Leaves(), tr.Depth())
	}
	if got := tr.Predict([]float64{99}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("leaf value = %v, want mean 5", got)
	}
}

func TestConstantFeatureNeverSplits(t *testing.T) {
	X := [][]float64{{7}, {7}, {7}, {7}}
	y := []float64{1, 2, 3, 4}
	tr := meanTree(X, y, Params{MaxDepth: 5, MinChildWeight: 1})
	if tr.Leaves() != 1 {
		t.Fatalf("split on constant feature: %d leaves", tr.Leaves())
	}
}

func TestMinChildWeightBlocksTinySplits(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{0, 0, 0, 100}
	loose := meanTree(X, y, Params{MaxDepth: 3, MinChildWeight: 1})
	strict := meanTree(X, y, Params{MaxDepth: 3, MinChildWeight: 2})
	if loose.Leaves() < 2 {
		t.Fatalf("loose tree refused an obvious split")
	}
	// With MinChildWeight=2, the outlier cannot be isolated alone.
	for _, x := range X {
		if p := strict.Predict(x); p == 100 {
			t.Fatalf("strict tree isolated a single sample despite MinChildWeight=2")
		}
	}
}

func TestGammaBlocksWeakSplits(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1.0, 1.01, 0.99, 1.02}
	tr := meanTree(X, y, Params{MaxDepth: 3, MinChildWeight: 1, Gamma: 10})
	if tr.Leaves() != 1 {
		t.Fatalf("gamma=10 should suppress near-noise splits; got %d leaves", tr.Leaves())
	}
}

func TestDepthLimitRespected(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	X := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = rng.Float64() * 10
	}
	for _, d := range []int{1, 2, 3, 5} {
		tr := meanTree(X, y, Params{MaxDepth: d, MinChildWeight: 1})
		if tr.Depth() > d {
			t.Fatalf("Depth() = %d exceeds MaxDepth %d", tr.Depth(), d)
		}
	}
}

func TestMeanTreePredictionsWithinTargetRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		n := 2 + rng.IntN(60)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64()}
			y[i] = rng.Float64()*200 - 100
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		tr := meanTree(X, y, Params{MaxDepth: 4, MinChildWeight: 1})
		for i := 0; i < 20; i++ {
			x := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64()}
			p := tr.Predict(x)
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLambdaShrinksLeaves(t *testing.T) {
	X := [][]float64{{1}, {2}}
	g := []float64{-10, -10} // both targets are 10
	h := []float64{1, 1}
	plain := referenceGrow(X, g, h, []int{0, 1}, []int{0}, Params{MaxDepth: 0, Lambda: 0})
	reg := referenceGrow(X, g, h, []int{0, 1}, []int{0}, Params{MaxDepth: 0, Lambda: 2})
	if p := plain.Predict(X[0]); math.Abs(p-10) > 1e-12 {
		t.Fatalf("lambda=0 leaf = %v, want 10", p)
	}
	if p := reg.Predict(X[0]); math.Abs(p-5) > 1e-12 {
		t.Fatalf("lambda=2 leaf = %v, want 20/(2+2)=5", p)
	}
}

func TestColumnRestriction(t *testing.T) {
	// Feature 0 is perfectly predictive but excluded from cols.
	X := [][]float64{{0, 5}, {0, 5}, {1, 5}, {1, 5}}
	g := []float64{0, 0, -10, -10}
	h := []float64{1, 1, 1, 1}
	tr := referenceGrow(X, g, h, []int{0, 1, 2, 3}, []int{1}, Params{MaxDepth: 3, MinChildWeight: 1})
	if tr.Leaves() != 1 {
		t.Fatalf("tree split on excluded feature: %d leaves", tr.Leaves())
	}
}

// Depth returns the maximum depth of the tree (0 for a single leaf).
func (t *refTree) Depth() int { return t.root.depth() }

func (n *refNode) depth() int {
	if n.leaf {
		return 0
	}
	return 1 + max(n.left.depth(), n.right.depth())
}

// Leaves returns the number of leaves.
func (t *refTree) Leaves() int { return t.root.leaves() }

func (n *refNode) leaves() int {
	if n.leaf {
		return 1
	}
	return n.left.leaves() + n.right.leaves()
}

// newComplete returns a zeroed complete tree of the given depth.
func newComplete(depth int) complete {
	n := 1<<depth - 1
	return complete{
		feats:  make([]int32, n),
		cut:    make([]uint16, n),
		thresh: make([]float64, n),
		gain:   make([]float64, n),
		split:  make([]bool, n),
		leaves: make([]float64, n+1),
	}
}

// FillComplete is the oracle encoder of the complete form a grower writes
// directly: the tree at the given depth (at least t.Depth()), its leaf
// values multiplied by scale, shallow leaves padded as complete describes,
// each split's cut its threshold counted into q's values of its feature
// (sort.Search, apart from score.Codes.Below).
func (t *refTree) FillComplete(depth int, scale float64, q *score.Codes) complete {
	c := newComplete(depth)
	fillComplete(t.root, 0, depth, scale, q, c)
	return c
}

func fillComplete(n *refNode, j, left int, scale float64, q *score.Codes, c complete) {
	if left == 0 {
		// Depth exhausted: n must be a leaf (depth >= t.Depth()).
		c.leaves[j-len(c.feats)] = scale * n.value
		return
	}
	if n.leaf {
		// Padding keeps newComplete's zeros: feature 0, threshold 0, gain
		// 0, unmarked.
		fillComplete(n, 2*j+1, left-1, scale, q, c)
		fillComplete(n, 2*j+2, left-1, scale, q, c)
		return
	}
	cut := sort.Search(q.Count(n.feature), func(i int) bool { return !(q.Value(n.feature, uint16(i)) < n.threshold) })
	c.feats[j], c.cut[j], c.thresh[j], c.gain[j], c.split[j] = int32(n.feature), uint16(cut), n.threshold, n.gain, true
	fillComplete(n.left, 2*j+1, left-1, scale, q, c)
	fillComplete(n.right, 2*j+2, left-1, scale, q, c)
}

// walkComplete descends a coded row through a complete tree as complete
// prescribes.
func walkComplete(c complete, codes []uint16) float64 {
	j := 0
	for j < len(c.feats) {
		if codes[c.feats[j]] < c.cut[j] {
			j = 2*j + 1
		} else {
			j = 2*j + 2
		}
	}
	return c.leaves[j-len(c.feats)]
}
