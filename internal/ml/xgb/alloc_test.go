//go:build !race

package xgb

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

// TestFitAllocs guards a surrogate fit at the paper's shape (configData:
// 50 rows, 7 integer tie-heavy columns, DefaultParams, coded beforehand)
// on a fresh Trainer in allocations and bytes: the rows' sorted (code, row)
// columns, one grower's scratch, the training predictions, and the model's
// complete-tree arrays, which the grower writes directly. It was 143 allocations while every round allocated its own tree header and
// sort.Slice ordered each column's row indices, 22 allocations of 157.7 KB
// (plus ~31 KB at the first predict) while every fit grew pointer trees in
// node slabs first, and 15 allocations of 67,816 B while fits sorted
// (float64, int32) pairs of float rows.
func TestFitAllocs(t *testing.T) {
	X, y := configData(1, 50)
	q, rows := codesOf(X)
	fit := func() {
		if _, err := NewTrainer(nil).Fit(q, rows, y, DefaultParams()); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, fit); allocs > fitAllocs {
		t.Errorf("%.0f allocations per Fit, want at most %d", allocs, fitAllocs)
	}
	if bytes := bytesPerRun(20, fit); bytes > fitBytes {
		t.Errorf("%d bytes allocated per Fit, want at most %d", bytes, fitBytes)
	}
}

// fitAllocs and fitBytes bound a paper-shaped Fit: 12 allocations of
// 63,880 bytes on amd64, and the byte bound's headroom under 10%.
const (
	fitAllocs = 12
	fitBytes  = 70_000
)

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated by one of runs calls of f, after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFirstPredictAllocs: a fitted model is already in the form every
// predict path walks, cuts and all, so even its first PredictRows
// allocates nothing. Every measured call is the first on its own freshly
// fitted model.
func TestFirstPredictAllocs(t *testing.T) {
	const runs = 10
	X, y := configData(1, 50)
	q, rows := codesOf(X)
	models := make([]*Model, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range models {
		m, err := NewTrainer(nil).Fit(q, rows[:40+i], y[:40+i], DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	next := 0
	out := make([]float64, 1)
	if allocs := testing.AllocsPerRun(runs, func() {
		models[next].PredictRows(q, 0, rows[next:next+1], out)
		next++
	}); allocs != 0 {
		t.Errorf("%.1f allocations on a model's first PredictRows, want 0", allocs)
	}
}

// TestPredictCodedBoundedAllocs guards the selector's kernel: the coded
// walk keeps its live lists on the stack, so a bounded call allocates
// nothing — with or without rows to abandon, across several groups.
func TestPredictCodedBoundedAllocs(t *testing.T) {
	X, y := trainingData(3, 240, 5)
	pool, _ := lowCardData(17, 600, 5)
	m, q := fitWith(t, X, y, pool, DefaultParams())
	idxs := make([]int, len(pool))
	for i := range idxs {
		idxs[i] = len(pool) - 1 - i
	}
	out := make([]float64, len(idxs))
	m.PredictCodedBounded(q, idxs, out, math.Inf(1))
	sorted := slices.Clone(out)
	slices.Sort(sorted)
	for _, bound := range []float64{math.Inf(1), sorted[len(sorted)/2]} {
		if allocs := testing.AllocsPerRun(20, func() { m.PredictCodedBounded(q, idxs, out, bound) }); allocs != 0 {
			t.Errorf("bound %v: %.0f allocations per PredictCodedBounded, want 0", bound, allocs)
		}
	}
}
