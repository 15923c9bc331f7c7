package xgb

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"ceal/internal/score"
)

// TestCodedRepresentativesMatchFloatRows: a model compiled into a coded
// matrix at a column offset — other columns before and after its own, the
// value tables discovered over rows of training values, fresh values, ±0,
// ±Inf and NaN — predicts any rows from their codes bitwise as PredictRow
// does from their floats, concurrently and at every depth; its cuts are
// each feature's thresholds counted into the value table, ascending and
// distinct.
func TestCodedRepresentativesMatchFloatRows(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 23))
		n, dim := 2+rng.IntN(40), 1+rng.IntN(6)
		X, y := lowCardData(uint64(trial), n, dim)
		p := DefaultParams()
		p.Rounds, p.MaxDepth = 1+rng.IntN(60), []int{0, 1, 4, 6}[rng.IntN(4)]
		m, err := FitOn(nil, X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		lo, extra := rng.IntN(3), rng.IntN(3)
		rows := make([][]float64, 300)
		for i := range rows {
			rows[i] = make([]float64, lo+dim+extra)
			for f := range rows[i] {
				switch k := f - lo; {
				case k < 0 || k >= dim:
					rows[i][f] = float64(rng.IntN(5))
				case rng.IntN(3) == 0:
					rows[i][f] = special[rng.IntN(len(special))]
				case rng.IntN(2) == 0:
					rows[i][f] = X[rng.IntN(n)][k]
				default:
					rows[i][f] = rng.NormFloat64() * 5
				}
			}
		}
		q := score.QuantizeRows(nil, rows)
		c := m.Compile(q, lo)

		thrs := m.Thresholds()
		cuts := c.Cuts()
		if len(cuts) != len(thrs) {
			t.Fatalf("trial %d: cuts for %d features, thresholds for %d", trial, len(cuts), len(thrs))
		}
		for f, thr := range thrs {
			vals := q.Values(lo + f)
			var want []uint16
			for _, v := range thr {
				k := uint16(sort.Search(len(vals), func(i int) bool { return !(vals[i] < v) }))
				if len(want) == 0 || want[len(want)-1] != k {
					want = append(want, k)
				}
			}
			if !slices.Equal(cuts[f], want) {
				t.Fatalf("trial %d feature %d: cuts %v, thresholds %v count to %v", trial, f, cuts[f], thr, want)
			}
		}

		idx := make([]int32, 1+rng.IntN(600))
		for i := range idx {
			idx[i] = int32(rng.IntN(len(rows)))
		}
		got := make([]float64, len(idx))
		done := make(chan struct{})
		for part := range 2 {
			go func() {
				defer func() { done <- struct{}{} }()
				a, b := part*(len(idx)/2), len(idx)/2+part*(len(idx)-len(idx)/2)
				c.PredictRows(idx[a:b], got[a:b])
			}()
		}
		<-done
		<-done
		for i, r := range idx {
			if want := m.PredictRow(rows[r][lo : lo+dim]); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d row %v: coded %v, PredictRow %v", trial, rows[r], got[i], want)
			}
		}
	}
}
