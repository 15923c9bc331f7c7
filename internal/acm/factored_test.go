package acm_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
	"ceal/internal/workflow"
)

var allCombiners = []acm.Combiner{acm.Max, acm.Sum, acm.Min, acm.Mean, acm.BottleneckSum}

// expModel is a component model as the tuner builds it: a boosted tree in
// log space.
type expModel struct{ m *xgb.Model }

func (e expModel) Predict(x []float64) float64 { return math.Exp(e.m.PredictRow(x)) }

// cellModel is expModel with the cell methods, as tuner.componentModel
// has them.
type cellModel struct{ expModel }

func (c cellModel) Cell(x []float64, key []int) { c.m.Cell(x, key) }

func (c cellModel) PredictBatch(X [][]float64, out []float64) {
	c.m.PredictBatchOnInto(nil, X, out)
	for i, v := range out {
		out[i] = math.Exp(v)
	}
}

// checkFactoredBothWays runs checkFactored on lf as given — its fitted
// parts cellModels — and again with the cell methods stripped, which sends
// ScoreBatchOn down the per-sub-configuration Predict path.
func checkFactoredBothWays(t *testing.T, lf *acm.LowFidelity, cfgs []cfgspace.Config) {
	t.Helper()
	checkFactored(t, lf, cfgs)
	for j := range lf.Parts {
		if c, ok := lf.Parts[j].Predictor.(cellModel); ok {
			lf.Parts[j].Predictor = c.expModel
		}
	}
	checkFactored(t, lf, cfgs)
}

// checkFactored compares ScoreBatchOn, at several widths, with Score on
// every configuration, bitwise, under every combiner.
func checkFactored(t *testing.T, lf *acm.LowFidelity, cfgs []cfgspace.Config) {
	t.Helper()
	for _, comb := range allCombiners {
		lf.Combine = comb
		want := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			want[i] = lf.Score(cfg)
		}
		for _, e := range []*score.Engine{nil, score.New(2), score.New(4), score.New(8)} {
			got := lf.ScoreBatchOn(e, cfgs)
			if len(got) != len(want) {
				t.Fatalf("%v workers=%d: %d scores for %d configurations", comb, e.Workers(), len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v workers=%d: cfg %v factored score %v, Score %v", comb, e.Workers(), cfgs[i], got[i], want[i])
				}
			}
		}
	}
}

// TestFactoredScoreMatchesReference: on the three paper workflows — GP
// with its two unconfigurable plotters — the once-per-distinct-
// sub-configuration batch score equals the per-configuration Score on
// every pool row, with component models and core counts built the way the
// live problems build them.
func TestFactoredScoreMatchesReference(t *testing.T) {
	m := cluster.Default()
	for _, bench := range workflow.Benchmarks(m) {
		t.Run(bench.Name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, 1))
			pool := bench.Space.SampleN(rng, 3000)
			lf := &acm.LowFidelity{}
			lo := 0
			for _, cs := range bench.Components {
				cs := cs
				part := acm.Part{Name: cs.Name, Lo: lo, Hi: lo + cs.Dim()}
				lo = part.Hi
				part.Cores = func(sub cfgspace.Config) float64 {
					return float64(cs.Layout(sub).Nodes() * m.CoresPerNode)
				}
				if cs.Space == nil {
					part.Predictor = acm.ConstPredictor(3.5)
					lf.Parts = append(lf.Parts, part)
					continue
				}
				part.Features = func(sub cfgspace.Config) []float64 { return cs.Features(m, sub) }
				X := make([][]float64, 60)
				y := make([]float64, len(X))
				for i, sub := range cs.Space.SampleN(rng, len(X)) {
					X[i] = part.Features(sub)
					y[i] = math.Log(1 + X[i][0]/X[i][len(X[i])-1]*float64(1+i%7))
				}
				model, err := xgb.Fit(X, y, xgb.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				part.Predictor = cellModel{expModel{model}}
				lf.Parts = append(lf.Parts, part)
			}
			checkFactoredBothWays(t, lf, pool)
		})
	}
}

// TestFactoredScoreMatchesReferenceGenerated repeats the comparison on
// generated models far from the paper's: one to five parts of zero to
// three parameters each (zero = unconfigurable, in any position), narrow
// ranges so sub-configurations repeat heavily, predictions of both signs
// or from a boosted model fitted on 15 rows (with and without the cell
// methods), and core counts that include the non-positive values fold
// clamps.
func TestFactoredScoreMatchesReferenceGenerated(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 5))
		lf := &acm.LowFidelity{}
		lo := 0
		for j, parts := 0, 1+rng.IntN(5); j < parts; j++ {
			salt := float64(1 + rng.IntN(9))
			part := acm.Part{Name: fmt.Sprintf("part%d", j), Lo: lo, Hi: lo + rng.IntN(4)}
			lo = part.Hi
			part.Cores = func(sub cfgspace.Config) float64 {
				c := salt - 3
				for _, v := range sub {
					c += float64(v % 3)
				}
				return c
			}
			if part.Lo == part.Hi {
				part.Predictor = acm.ConstPredictor(salt * 1.7)
			} else {
				part.Features = func(sub cfgspace.Config) []float64 {
					x := make([]float64, len(sub))
					for i, v := range sub {
						x[i] = float64(v) / salt
					}
					return x
				}
				part.Predictor = sinModel(salt)
				if rng.IntN(2) == 0 {
					X, y := make([][]float64, 15), make([]float64, 15)
					for i := range X {
						sub := make(cfgspace.Config, part.Hi-part.Lo)
						for k := range sub {
							sub[k] = rng.IntN(6) - 2
						}
						X[i] = part.Features(sub)
						y[i] = sinModel(salt).Predict(X[i]) / 4
					}
					model, err := xgb.Fit(X, y, xgb.DefaultParams())
					if err != nil {
						t.Fatal(err)
					}
					part.Predictor = cellModel{expModel{model}}
				}
			}
			lf.Parts = append(lf.Parts, part)
		}
		cfgs := make([]cfgspace.Config, 1+rng.IntN(400))
		for i := range cfgs {
			cfgs[i] = make(cfgspace.Config, lo)
			for k := range cfgs[i] {
				cfgs[i][k] = rng.IntN(6) - 2
			}
		}
		checkFactoredBothWays(t, lf, cfgs)
	}
	checkFactored(t, &acm.LowFidelity{Parts: []acm.Part{{Name: "only", Predictor: acm.ConstPredictor(2),
		Cores: func(cfgspace.Config) float64 { return 4 }}}}, nil)
}

type sinModel float64

func (s sinModel) Predict(x []float64) float64 {
	out := float64(s)
	for i, v := range x {
		out += math.Sin(v*float64(i+1)) * float64(s)
	}
	return out
}
