package xgb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/score"
)

// latticeCols draws dim declared columns: a Min as low as -40, a Step of 1
// to 7, one to 30 values — now and then a single one — and, when wide, one
// column of score.MaxCodes values at a random position.
func latticeCols(rng *rand.Rand, dim int, wide bool) []cfgspace.Param {
	cols := make([]cfgspace.Param, dim)
	for f := range cols {
		lo, step, count := rng.IntN(81)-40, 1+rng.IntN(7), 1+rng.IntN(30)
		if rng.IntN(6) == 0 {
			count = 1
		}
		cols[f] = cfgspace.NewSteppedParam(fmt.Sprint("x", f), lo, lo+(count-1)*step, step)
	}
	if wide {
		cols[rng.IntN(dim)] = cfgspace.NewSteppedParam("wide", -3*score.MaxCodes, -3, 3)
	}
	return cols
}

// latticeRows draws n configurations on cols, each column's value most
// often one of a few, and codes them by the columns: the codes and the
// float rows they stand for.
func latticeRows(t *testing.T, rng *rand.Rand, cols []cfgspace.Param, n int) (*score.Codes, [][]float64) {
	t.Helper()
	cfgs := make([]cfgspace.Config, n)
	X := make([][]float64, n)
	for i := range cfgs {
		cfgs[i], X[i] = make(cfgspace.Config, len(cols)), make([]float64, len(cols))
		for f, c := range cols {
			k := rng.IntN(c.Count())
			if rng.IntN(2) == 0 {
				k = rng.IntN(min(3, c.Count()))
			}
			cfgs[i][f] = c.Value(k)
			X[i][f] = float64(cfgs[i][f])
		}
	}
	q, err := score.Encode(nil, cfgs, cfgspace.NewCoder(cols, nil))
	if err != nil {
		t.Fatal(err)
	}
	return q, X
}

// treeOf returns tree t of m as the complete form it was grown in.
func treeOf(m *Model, t int) complete {
	inner, leafN := 1<<m.depth-1, 1<<m.depth
	return complete{
		feats: m.feats[t*inner : (t+1)*inner], cut: m.cut[t*inner : (t+1)*inner], thresh: m.thresh[t*inner : (t+1)*inner],
		gain: m.gain[t*inner : (t+1)*inner], split: m.split[t*inner : (t+1)*inner], leaves: m.leaves[t*leafN : (t+1)*leafN],
	}
}

// TestFitMatchesReferenceOnLattices: a fit on the codes of declared
// lattices — steps above 1, negative minima, tied and single-valued
// columns, a column of score.MaxCodes values — grows, node by node, the
// trees the float reference trainer grows on the values the codes stand
// for: the same base, and in every tree the same split features, cuts (the
// reference's thresholds counted into the lattice), thresholds, gains,
// split marks and eta-scaled leaves, bit for bit. The training rows are a
// shuffled subset of the coded matrix's, repeats allowed.
func TestFitMatchesReferenceOnLattices(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 31))
		dim := 1 + rng.IntN(6)
		q, X := latticeRows(t, rng, latticeCols(rng, dim, trial%4 == 0), 2+rng.IntN(80))
		rows := make([]int32, 1+rng.IntN(60))
		Xt, y := make([][]float64, len(rows)), make([]float64, len(rows))
		for k := range rows {
			rows[k] = int32(rng.IntN(q.N))
			Xt[k] = X[rows[k]]
			y[k] = Xt[k][0]/7 + float64(rng.IntN(3)) + 0.1*rng.NormFloat64()
		}
		p := Params{Rounds: 1 + rng.IntN(30), LearningRate: 0.05 + rng.Float64()/2, MaxDepth: rng.IntN(7),
			Lambda: rng.Float64() * 2, Gamma: rng.Float64() * 0.05, MinChildWeight: []float64{0.5, 1, 2.5}[rng.IntN(3)]}
		m, err := NewTrainer(nil).Fit(q, rows, y, p)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceFit(Xt, y, p)
		label := fmt.Sprintf("trial %d", trial)
		if math.Float64bits(m.base) != math.Float64bits(ref.base) || m.Rounds() != len(ref.trees) {
			t.Fatalf("%s: base %v over %d trees, reference %v over %d", label, m.base, m.Rounds(), ref.base, len(ref.trees))
		}
		for k, tr := range ref.trees {
			sameComplete(t, fmt.Sprintf("%s tree %d", label, k), tr.FillComplete(m.depth, p.LearningRate, q), treeOf(m, k))
		}
	}
}

// TestCodedRepresentativesMatchFloatRows: a model fitted on the codes of
// declared lattices predicts the rows of another matrix coded by the same
// lattices at a column offset — other columns before and after its own —
// from their codes, concurrently and at every depth, bitwise as the float
// walk predicts their values; its cuts are each feature's thresholds
// counted into the lattice, ascending and distinct.
func TestCodedRepresentativesMatchFloatRows(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 23))
		dim := 1 + rng.IntN(6)
		cols := latticeCols(rng, dim, trial%8 == 0)
		train, X := latticeRows(t, rng, cols, 2+rng.IntN(40))
		y := make([]float64, len(X))
		for i, x := range X {
			y[i] = x[0]*2 + math.Sin(x[dim-1]) + 0.1*rng.NormFloat64()
		}
		p := DefaultParams()
		p.Rounds, p.MaxDepth = 1+rng.IntN(60), []int{0, 1, 4, 6}[rng.IntN(4)]
		_, all := codesOf(X)
		m, err := NewTrainer(nil).Fit(train, all, y, p)
		if err != nil {
			t.Fatal(err)
		}

		lo, extra := rng.IntN(3), rng.IntN(3)
		wide := slices.Concat(latticeCols(rng, lo, false), cols, latticeCols(rng, extra, false))
		q, wideX := latticeRows(t, rng, wide, 300)

		thrs := m.Thresholds()
		cuts := m.Cuts()
		if len(cuts) != len(thrs) {
			t.Fatalf("trial %d: cuts for %d features, thresholds for %d", trial, len(cuts), len(thrs))
		}
		for f, thr := range thrs {
			var want []uint16
			for _, v := range thr {
				k := uint16(sort.Search(q.Count(lo+f), func(i int) bool { return !(q.Value(lo+f, uint16(i)) < v) }))
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
			idx[i] = int32(rng.IntN(q.N))
		}
		got := make([]float64, len(idx))
		done := make(chan struct{})
		for part := range 2 {
			go func() {
				defer func() { done <- struct{}{} }()
				a, b := part*(len(idx)/2), len(idx)/2+part*(len(idx)-len(idx)/2)
				m.PredictRows(q, lo, idx[a:b], got[a:b])
			}()
		}
		<-done
		<-done
		for i, r := range idx {
			if want := m.PredictRow(wideX[r][lo : lo+dim]); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d row %v: coded %v, float walk %v", trial, wideX[r], got[i], want)
			}
		}
	}
}
