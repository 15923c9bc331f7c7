package xgb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ceal/internal/score"
)

// lowCardData builds a low-cardinality regression set: every feature
// column draws from a small random alphabet (≤ 200 distinct values), the
// shape of a pool sampled from a parameter grid. Targets stay continuous.
func lowCardData(seed uint64, n, dim int) ([][]float64, []float64) {
	rng := rand.New(rand.NewPCG(seed, 77))
	levels := make([][]float64, dim)
	for f := range levels {
		var k int
		switch f % 3 {
		case 0:
			k = 2 + rng.IntN(3)
		case 1:
			k = 4
		default:
			k = 2 + rng.IntN(199)
		}
		lv := make([]float64, k)
		for j := range lv {
			lv[j] = rng.NormFloat64() * 5
		}
		levels[f] = lv
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for f := range X[i] {
			X[i][f] = levels[f][rng.IntN(len(levels[f]))]
		}
		y[i] = X[i][0]*2 + math.Sin(X[i][dim-1]) + 0.1*rng.NormFloat64()
	}
	return X, y
}

// fitWith fits a model on rows X and targets y coded by discovery together
// with the rows of pool, which take rows 0..len(pool)-1 of the matrix it
// returns: a model that predicts pool's rows from their codes.
func fitWith(t testing.TB, X [][]float64, y []float64, pool [][]float64, p Params) (*Model, *score.Codes) {
	t.Helper()
	q := score.QuantizeRows(nil, slices.Concat(pool, X))
	rows := make([]int32, len(X))
	for k := range rows {
		rows[k] = int32(len(pool) + k)
	}
	m, err := NewTrainer(nil).Fit(q, rows, y, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, q
}

// TestPredictBatchMatchesPredict pins every complete-tree entry point to the
// pointer-tree oracle refModel.Predict, bitwise: the float walk,
// PredictBatchOnInto serially and at 1/2/4/8 workers, PredictCodes over
// the codes the model was fitted with, PredictBatchQuantizedOnInto over
// the pool coded apart and PredictCodedBounded with nothing to abandon —
// for
// leaf-only ensembles (padded to one level), the shallowest and the
// deepest trees FitOn accepts, and a batch whose length leaves a
// tail after the four-abreast loop and whose chunks, at every worker
// count, end inside or exactly on the coded walk's 256-row groups.
func TestPredictBatchMatchesPredict(t *testing.T) {
	const dim = 6
	X, y := trainingData(5, 300, dim)
	pool, _ := lowCardData(11, 603, dim) // 603 = 4·150 + 3 = 2·256 + 91
	apart := score.QuantizeRows(nil, pool)
	all := make([]int, len(pool))
	for i := range all {
		all[i] = i
	}
	cases := []struct {
		name             string
		maxDepth, padded int
	}{
		{"stumps", 0, 1},
		{"depth 1", 1, 1},
		{"depth 4", 4, 4},
		{"depth 8", 8, 8},
	}
	engines := []*score.Engine{nil, score.New(1), score.New(2), score.New(4), score.New(8)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.Rounds, p.MaxDepth = 25, tc.maxDepth
			m, q := fitWith(t, X, y, pool, p)
			if m.depth != tc.padded {
				t.Fatalf("complete-tree depth %d, want %d", m.depth, tc.padded)
			}
			ref := referenceFit(X, y, p)
			want := make([]float64, len(pool))
			for i, x := range pool {
				want[i] = ref.Predict(x)
			}
			check := func(entry string, got []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: row %d = %v, Predict = %v", entry, i, got[i], want[i])
					}
				}
			}
			got := make([]float64, len(pool))
			for i, x := range pool {
				got[i] = m.PredictRow(x)
			}
			check("PredictRow", got)
			for _, e := range engines {
				clear(got)
				m.PredictBatchOnInto(e, pool, got)
				check("PredictBatchOnInto", got)
				clear(got)
				m.PredictBatchQuantizedOnInto(e, apart, got)
				check("PredictBatchQuantizedOnInto", got)
				codes := make([]float64, q.N)
				m.PredictCodes(e, q, codes)
				check("PredictCodes", codes[:len(pool)])
			}
			clear(got)
			m.PredictCodedBounded(q, all, got, math.Inf(1))
			check("PredictCodedBounded", got)
			m.PredictBatchOnInto(nil, nil, nil) // an empty batch is a no-op
		})
	}
}

// TestPredictBatchQuantizedMatchesFloat compares the two batch kernels
// with each other directly: scoring a rank-coded pool must be bitwise
// identical to scoring its float rows at any worker count — what the perf
// ledger's float-vs-quant ns/row pair assumes. The pool carries the values
// a featurizer could emit and a training set never holds: NaN (right of
// every split, as the float compare sends it), ±Inf and −0.
func TestPredictBatchQuantizedMatchesFloat(t *testing.T) {
	X, y := trainingData(7, 200, 5)
	p := Params{Rounds: 30, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1}
	m, err := FitOn(nil, X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := lowCardData(11, 500, 5)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	rng := rand.New(rand.NewPCG(5, 9))
	for i := 0; i < len(pool); i += 3 {
		pool[i][rng.IntN(5)] = specials[rng.IntN(len(specials))]
	}
	ref := referenceFit(X, y, p)
	want := make([]float64, len(pool))
	for i, x := range pool {
		want[i] = ref.Predict(x)
	}
	q := score.QuantizeRows(nil, pool)
	for _, e := range []*score.Engine{nil, score.New(4)} {
		got := make([]float64, q.N)
		m.PredictBatchQuantizedOnInto(e, q, got)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("row %d (%v): coded pool predicts %v, Predict %v", i, pool[i], got[i], want[i])
			}
		}
	}
}

// TestPredictCodedBoundedIsExact is the early stop's contract on ensembles
// from well-conditioned to adversarial (targets of both signs at 1e150, so
// the rounding slack exceeds every leaf; constant targets, so every tree
// is one leaf and all scores tie): at any bound, a row is either reported
// bitwise as Predict computes it or abandoned as +Inf, and it is abandoned
// only if Predict is strictly above the bound. Bounds are taken at, just
// below and just above actual predictions, where a careless margin would
// show. Index blocks are scattered, of every length around the walk's
// four-abreast tails and its 256-row groups.
func TestPredictCodedBoundedIsExact(t *testing.T) {
	const dim = 5
	X, y := trainingData(3, 240, dim)
	huge := make([]float64, len(y))
	flat := make([]float64, len(y))
	for i, v := range y {
		huge[i] = math.Copysign(1e150, v) * (1 + math.Abs(v))
		flat[i] = 2.5
	}
	pool, _ := lowCardData(17, 600, dim)
	perm := rand.New(rand.NewPCG(17, 3)).Perm(len(pool))
	lengths := []int{0, 1, 3, 4, 5, 255, 256, 257, 600}
	cases := []struct {
		name   string
		y      []float64
		depth  int
		rounds int
	}{
		{"leaf-only", flat, 4, 20},
		{"stumps", y, 0, 20},
		{"depth 1", y, 1, 40},
		{"depth 4", y, 4, 100},
		{"depth 8", y, 8, 30},
		{"huge mixed-sign leaves", huge, 4, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.Rounds, p.MaxDepth = tc.rounds, tc.depth
			m, q := fitWith(t, X, tc.y, pool, p)
			ref := referenceFit(X, tc.y, p)
			want := make([]float64, len(pool))
			for i, x := range pool {
				want[i] = ref.Predict(x)
			}
			sorted := slices.Clone(want)
			slices.Sort(sorted)
			bounds := []float64{math.Inf(-1), math.Inf(1), math.NaN(), sorted[0], sorted[len(sorted)-1]}
			for _, qt := range []int{1, 10, 50, 90} {
				v := sorted[len(sorted)*qt/100]
				bounds = append(bounds, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
			}
			abandoned := 0
			for _, n := range lengths {
				idxs := perm[:n]
				got := make([]float64, n)
				for _, bound := range bounds {
					m.PredictCodedBounded(q, idxs, got, bound)
					for k, idx := range idxs {
						if math.Float64bits(got[k]) == math.Float64bits(want[idx]) {
							continue
						}
						if !math.IsInf(got[k], 1) {
							t.Fatalf("%d rows, bound %v, row %d: got %v, Predict %v", n, bound, idx, got[k], want[idx])
						}
						if !(want[idx] > bound) {
							t.Fatalf("%d rows, bound %v, row %d: abandoned a row Predict puts at %v", n, bound, idx, want[idx])
						}
						abandoned++
					}
				}
			}
			if tc.name == "depth 4" && abandoned == 0 {
				t.Error("the bound never abandoned a row of the default-shaped ensemble")
			}
		})
	}
}

// BenchmarkPredictCodedBounded streams a 100k-row coded pool through the
// bounded kernel the way the fused selector streams one chunk: a first
// block of n rows with no cut-off, then blocks doubling up to 512 rows,
// each scored against the n-th best prediction so far. The model is fitted
// on 60 rows, a paper-scale training set.
func BenchmarkPredictCodedBounded(b *testing.B) {
	const poolN, n, dim = 100_000, 16, 6
	X, y := lowCardData(3, 60, dim)
	pool, _ := lowCardData(17, poolN, dim)
	m, q := fitWith(b, X, y, pool, DefaultParams())
	idxs := make([]int, poolN)
	for i := range idxs {
		idxs[i] = i
	}
	out := make([]float64, 512)
	best := make([]float64, 0, n) // ascending
	abandoned := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best = best[:0]
		for lo, size := 0, n; lo < poolN; lo, size = lo+size, min(2*size, len(out)) {
			block := out[:min(size, poolN-lo)]
			bound := math.Inf(1)
			if len(best) == n {
				bound = best[n-1]
			}
			m.PredictCodedBounded(q, idxs[lo:lo+len(block)], block, bound)
			for _, v := range block {
				if math.IsInf(v, 1) {
					abandoned++
				}
				if len(best) == n && !(v < best[n-1]) {
					continue
				}
				at, _ := slices.BinarySearch(best, v)
				if len(best) < n {
					best = append(best, 0)
				}
				copy(best[at+1:], best[at:])
				best[at] = v
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/poolN, "ns/row")
	b.ReportMetric(float64(abandoned)/float64(b.N)/poolN, "abandoned/row")
}

// buckets is a row's cell under thresholds thr: per feature, how many of
// its thresholds the value is not below (NaN: all of them).
func buckets(thr [][]float64, x []float64) []int {
	key := make([]int, len(x))
	for f, v := range x {
		if f < len(thr) {
			for _, t := range thr[f] {
				if !(v < t) {
					key[f]++
				}
			}
		}
	}
	return key
}

// TestEqualCellsPredictEqual: for random fitted models and random rows —
// training values, the models' own thresholds and their float neighbours,
// ±0, ±Inf, NaN — rows with equal bucket tuples under Thresholds have
// math.Float64bits-equal PredictRow, and PredictBatchOnInto on one
// representative per cell, scattered back, equals PredictRow on every row.
// A model fitted on n rows holds at most n-1 thresholds a feature, strictly
// ascending, and names no feature past its training width.
func TestEqualCellsPredictEqual(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 21))
		n, dim := 2+rng.IntN(30), 1+rng.IntN(6)
		X, y := lowCardData(uint64(trial), n, dim)
		p := DefaultParams()
		p.Rounds, p.MaxDepth = 1+rng.IntN(40), []int{0, 1, 4, 6}[rng.IntN(4)]
		m, err := FitOn(nil, X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		thrs := m.Thresholds()
		if len(thrs) > dim {
			t.Fatalf("trial %d: thresholds for %d features of %d", trial, len(thrs), dim)
		}
		special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
		for f, thr := range thrs {
			if len(thr) > n-1 {
				t.Fatalf("trial %d: feature %d has %d thresholds from %d rows", trial, f, len(thr), n)
			}
			for k, v := range thr {
				if k > 0 && !(thr[k-1] < v) {
					t.Fatalf("trial %d: feature %d thresholds %v not strictly ascending", trial, f, thr)
				}
				special = append(special, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
			}
		}
		rows := make([][]float64, 400)
		keys := make([][]int, len(rows))
		reps := map[string]int{} // cell -> index into repRows
		var repRows [][]float64
		cellOf := make([]int, len(rows))
		for i := range rows {
			rows[i] = make([]float64, dim)
			for f := range rows[i] {
				switch rng.IntN(3) {
				case 0:
					rows[i][f] = X[rng.IntN(n)][f]
				case 1:
					rows[i][f] = special[rng.IntN(len(special))]
				default:
					rows[i][f] = rng.NormFloat64() * 5
				}
			}
			keys[i] = buckets(thrs, rows[i])
			k := fmt.Sprint(keys[i])
			if _, ok := reps[k]; !ok {
				reps[k] = len(repRows)
				repRows = append(repRows, rows[i])
			}
			cellOf[i] = reps[k]
		}
		pred := make([]float64, len(repRows))
		m.PredictBatchOnInto(score.New(1+rng.IntN(4)), repRows, pred)
		for i, x := range rows {
			want := m.PredictRow(x)
			if rep := repRows[cellOf[i]]; math.Float64bits(m.PredictRow(rep)) != math.Float64bits(want) {
				t.Fatalf("trial %d: rows %v and %v share cell %v but predict %v and %v", trial, rep, x, keys[i], m.PredictRow(rep), want)
			}
			if math.Float64bits(pred[cellOf[i]]) != math.Float64bits(want) {
				t.Fatalf("trial %d row %v: batch prediction of its cell %v, PredictRow %v", trial, x, pred[cellOf[i]], want)
			}
		}
	}
}
