//go:build !race

package xgb

import (
	"math"
	"slices"
	"testing"

	"ceal/internal/score"
)

// TestFitAllocs guards a surrogate refit at the paper's shape (configData:
// 50 rows, 7 integer tie-heavy columns, DefaultParams): the validated
// rows' sorted columns, one grower's scratch, node and tree-header slabs,
// and the model. It was 143 while every round allocated its own tree
// header and sort.Slice ordered each column's row indices.
func TestFitAllocs(t *testing.T) {
	X, y := configData(1, 50)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Fit(X, y, DefaultParams()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > fitAllocs {
		t.Errorf("%.0f allocations per Fit, want at most %d", allocs, fitAllocs)
	}
}

const fitAllocs = 22

// TestPredictCodedBoundedAllocs guards the selector's kernel: the coded
// walk keeps its live lists on the stack, so once the ensemble is
// flattened and its cuts compiled for the pool, a bounded call allocates
// nothing — with or without rows to abandon, across several groups.
func TestPredictCodedBoundedAllocs(t *testing.T) {
	X, y := trainingData(3, 240, 5)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := lowCardData(17, 600, 5)
	q := score.QuantizeRows(nil, pool)
	idxs := make([]int, len(pool))
	for i := range idxs {
		idxs[i] = len(pool) - 1 - i
	}
	out := make([]float64, len(idxs))
	m.PredictCodedBounded(q, idxs, out, math.Inf(1)) // flatten and compile the cuts
	sorted := slices.Clone(out)
	slices.Sort(sorted)
	for _, bound := range []float64{math.Inf(1), sorted[len(sorted)/2]} {
		if allocs := testing.AllocsPerRun(20, func() { m.PredictCodedBounded(q, idxs, out, bound) }); allocs != 0 {
			t.Errorf("bound %v: %.0f allocations per PredictCodedBounded, want 0", bound, allocs)
		}
	}
}
