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

func (c cellModel) Thresholds() [][]float64 { return c.m.Thresholds() }

func (c cellModel) PredictBatch(X [][]float64, out []float64) {
	c.m.PredictBatchOnInto(nil, X, out)
	for i, v := range out {
		out[i] = math.Exp(v)
	}
}

// fitCell fits a cellModel to rows X and targets y under params p.
func fitCell(t *testing.T, X [][]float64, y []float64, p xgb.Params) cellModel {
	t.Helper()
	model, err := xgb.Fit(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	return cellModel{expModel{model}}
}

// layout is a feature matrix over the configurations under test and where
// each part's features sit in it: what a problem that declares its
// feature columns hands the kernel.
type layout struct {
	name  string
	q     *score.Codes
	spans []acm.Span
}

// declared codes feats over cfgs.
func declared(name string, cfgs []cfgspace.Config, feats func(cfgspace.Config) []float64, spans []acm.Span) layout {
	var mat score.Matrix
	return layout{name: name, q: mat.Codes(score.New(2), cfgs, feats), spans: spans}
}

// reversed lays the parts' features out last part first, behind a column
// no part reads.
func reversed(lf *acm.LowFidelity, cfgs []cfgspace.Config) layout {
	spans := make([]acm.Span, len(lf.Parts))
	at := 1
	for j := len(lf.Parts) - 1; j >= 0; j-- {
		if part := &lf.Parts[j]; part.Features != nil {
			spans[j] = acm.Span{Lo: at, Hi: at + len(part.Features(part.Sub(cfgs[0])))}
			at = spans[j].Hi
		}
	}
	return declared("reversed", cfgs, func(cfg cfgspace.Config) []float64 {
		x := []float64{float64(len(cfg))}
		for j := len(lf.Parts) - 1; j >= 0; j-- {
			if part := &lf.Parts[j]; part.Features != nil {
				x = append(x, part.Features(part.Sub(cfg))...)
			}
		}
		return x
	}, spans)
}

// benchLayout is a benchmark's workflow feature vector, which holds its
// configurable components' features in order from column 0.
func benchLayout(bench *workflow.Benchmark, cfgs []cfgspace.Config) layout {
	spans := make([]acm.Span, len(bench.Components))
	at := 0
	for j, cs := range bench.Components {
		if cs.Space != nil {
			spans[j] = acm.Span{Lo: at, Hi: at + len(cs.Features(bench.Sub(cfgs[0], j)))}
			at = spans[j].Hi
		}
	}
	return declared("workflow", cfgs, bench.Features, spans)
}

// checkFactoredBothWays runs checkFactored on lf as given — its fitted
// parts cellModels — and again with the cell methods stripped, which sends
// every part down the per-row Predict path.
func checkFactoredBothWays(t *testing.T, lf *acm.LowFidelity, cfgs []cfgspace.Config, layouts ...layout) {
	t.Helper()
	checkFactored(t, lf, cfgs, layouts...)
	for j := range lf.Parts {
		if c, ok := lf.Parts[j].Predictor.(cellModel); ok {
			lf.Parts[j].Predictor = c.expModel
		}
	}
	checkFactored(t, lf, cfgs, layouts...)
}

// checkFactored compares ScoreConfigs, and ScoreCodes over each layout, at
// widths 1, 2, 4 and 8, with Score on every configuration, bitwise, under
// every combiner.
func checkFactored(t *testing.T, lf *acm.LowFidelity, cfgs []cfgspace.Config, layouts ...layout) {
	t.Helper()
	for _, comb := range allCombiners {
		lf.Combine = comb
		want := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			want[i] = lf.Score(cfg)
		}
		for _, e := range []*score.Engine{nil, score.New(2), score.New(4), score.New(8)} {
			check := func(how string, got []float64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%v %s workers=%d: %d scores for %d configurations", comb, how, e.Workers(), len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v %s workers=%d: cfg %v scores %v, Score %v", comb, how, e.Workers(), cfgs[i], got[i], want[i])
					}
				}
			}
			check("ScoreConfigs", lf.ScoreConfigs(e, cfgs))
			for _, l := range layouts {
				check(l.name, lf.ScoreCodes(e, l.q, l.spans, cfgs))
			}
		}
	}
}

// TestFactoredScoreMatchesReference: the kernel over rank codes equals the
// per-configuration Score on every row, bitwise, under every combiner and
// at every width, with component models and core counts built the way the
// live problems build them:
//   - LV, HS and GP (with its two unconfigurable plotters), over the
//     components' own features and over the workflow features at the
//     columns the benchmark declares;
//   - HS with heat fitted on 500 history samples of its 7 features;
//   - a part with 255 thresholds on each of nine features, whose bucket
//     radices multiply to 2^72, past any packing of a bucket tuple into
//     one uint64 (a fitted heat model's multiply to about 1e11);
//   - a pool with a column too wide to rank-code, whose buckets come from
//     its float rows.
func TestFactoredScoreMatchesReference(t *testing.T) {
	m := cluster.Default()
	benchModel := func(bench *workflow.Benchmark, history int, rng *rand.Rand) *acm.LowFidelity {
		lf := &acm.LowFidelity{}
		lo := 0
		for j, cs := range bench.Components {
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
			part.Features = func(sub cfgspace.Config) []float64 { return cs.Features(sub) }
			n := 60
			if j == 0 {
				n = history
			}
			X := make([][]float64, n)
			y := make([]float64, len(X))
			for i, sub := range cs.Space.SampleN(rng, len(X)) {
				X[i] = part.Features(sub)
				y[i] = math.Log(1 + X[i][0]/X[i][len(X[i])-1]*float64(1+i%7))
			}
			part.Predictor = fitCell(t, X, y, xgb.DefaultParams())
			lf.Parts = append(lf.Parts, part)
		}
		return lf
	}
	for _, bench := range workflow.Benchmarks(m) {
		t.Run(bench.Name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, 1))
			pool := bench.Space.SampleN(rng, 3000)
			checkFactoredBothWays(t, benchModel(bench, 60, rng), pool, benchLayout(bench, pool))
		})
	}
	t.Run("heat history", func(t *testing.T) {
		bench := workflow.HS(m)
		rng := rand.New(rand.NewPCG(7, 2))
		lf := benchModel(bench, 500, rng)
		pool := bench.Space.SampleN(rng, 3000)
		if n := len(lf.Parts[0].Features(bench.Sub(pool[0], 0))); n != 7 {
			t.Fatalf("heat has %d features, want 7", n)
		}
		checkFactored(t, lf, pool, benchLayout(bench, pool))
	})
	t.Run("radix past 2^64", func(t *testing.T) {
		// Nine radices of 256: packed in one uint64, feature 0's bucket
		// would be multiplied by 2^64 and lost, and rows differing only
		// there would share a cell. Cells are numbered by their whole
		// bucket tuple, so they stay apart.
		const dim = 9
		rng := rand.New(rand.NewPCG(7, 3))
		lf := &acm.LowFidelity{Parts: []acm.Part{
			{Name: "steps", Predictor: stepModel(dim), Lo: 0, Hi: dim,
				Features: func(sub cfgspace.Config) []float64 {
					x := make([]float64, len(sub))
					for k, v := range sub {
						x[k] = float64(v)
					}
					return x
				},
				Cores: func(cfgspace.Config) float64 { return 4 }},
			{Name: "fixed", Predictor: acm.ConstPredictor(2), Lo: dim, Hi: dim,
				Cores: func(cfgspace.Config) float64 { return 1 }},
		}}
		pool := make([]cfgspace.Config, 2000)
		for i := range pool {
			pool[i] = make(cfgspace.Config, dim)
			pool[i][0] = rng.IntN(256)
			for k := 1; k < dim; k++ {
				pool[i][k] = 255 * rng.IntN(2)
			}
		}
		checkFactored(t, lf, pool, reversed(lf, pool))
	})
	t.Run("wide pool", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(7, 4))
		feats := func(sub cfgspace.Config) []float64 {
			x := make([]float64, len(sub))
			for k, v := range sub {
				x[k] = float64(v) * 0.5
			}
			return x
		}
		pool := make([]cfgspace.Config, score.MaxCodes+300)
		for i := range pool {
			pool[i] = cfgspace.Config{i, rng.IntN(9), rng.IntN(5)}
		}
		lf := &acm.LowFidelity{}
		for j, span := range [][2]int{{0, 2}, {2, 3}} {
			X, y := make([][]float64, 40), make([]float64, 40)
			for i := range X {
				X[i] = feats(pool[rng.IntN(len(pool))][span[0]:span[1]])
				y[i] = math.Log(2 + X[i][0])
			}
			lf.Parts = append(lf.Parts, acm.Part{Name: fmt.Sprint("part", j), Lo: span[0], Hi: span[1],
				Predictor: fitCell(t, X, y, xgb.DefaultParams()), Features: feats,
				Cores: func(sub cfgspace.Config) float64 { return float64(1 + sub[0]%4) }})
		}
		l := reversed(lf, pool)
		if l.q.FloatRows() == nil {
			t.Fatal("a pool with a unique-per-row feature was rank-coded")
		}
		checkFactored(t, lf, pool, l)
	})
}

// TestFactoredScoreMatchesReferenceGenerated repeats the comparison on
// generated models far from the paper's: one to five parts of zero to
// three parameters each (zero = unconfigurable, in any position), narrow
// ranges so sub-configurations repeat heavily, predictions of both signs
// or from a boosted model fitted on 15 rows (with and without the cell
// methods), core counts that include the non-positive values fold clamps,
// and in every other trial features that score as NaN, ±Inf and −0 though
// the models were fitted on finite ones.
func TestFactoredScoreMatchesReferenceGenerated(t *testing.T) {
	special := map[int]float64{-2: math.NaN(), -1: math.Copysign(0, -1), 2: math.Inf(1), 3: math.Inf(-1)}
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
				lf.Parts = append(lf.Parts, part)
				continue
			}
			finite := func(sub cfgspace.Config) []float64 {
				x := make([]float64, len(sub))
				for i, v := range sub {
					x[i] = float64(v) / salt
				}
				return x
			}
			part.Features = finite
			part.Predictor = sinModel(salt)
			if rng.IntN(2) == 0 {
				X, y := make([][]float64, 15), make([]float64, 15)
				for i := range X {
					sub := make(cfgspace.Config, part.Hi-part.Lo)
					for k := range sub {
						sub[k] = rng.IntN(6) - 2
					}
					X[i] = finite(sub)
					y[i] = sinModel(salt).Predict(X[i]) / 4
				}
				part.Predictor = fitCell(t, X, y, xgb.DefaultParams())
			}
			if trial%2 == 1 {
				part.Features = func(sub cfgspace.Config) []float64 {
					x := finite(sub)
					for i, v := range sub {
						if s, ok := special[v]; ok && (v+i)%2 == 0 {
							x[i] = s
						}
					}
					return x
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
		checkFactoredBothWays(t, lf, cfgs, reversed(lf, cfgs))
	}
	checkFactored(t, &acm.LowFidelity{Parts: []acm.Part{{Name: "only", Predictor: acm.ConstPredictor(2),
		Cores: func(cfgspace.Config) float64 { return 4 }}}}, nil)
}

// stepModel is a CellPredictor over dim features with 255 thresholds on
// each, at 0.5, 1.5, …, 254.5: it predicts the sum of each feature's
// bucket times 1 + its index squared, so rows in different cells mostly
// predict differently.
type stepModel int

func (s stepModel) Thresholds() [][]float64 {
	thr := make([]float64, 255)
	for k := range thr {
		thr[k] = float64(k) + 0.5
	}
	out := make([][]float64, s)
	for f := range out {
		out[f] = thr
	}
	return out
}

func (s stepModel) Predict(x []float64) float64 {
	out := 0.0
	for f, v := range x {
		out += math.Max(0, math.Min(255, math.Floor(v+0.5))) * float64(1+f*f)
	}
	return out
}

func (s stepModel) PredictBatch(X [][]float64, out []float64) {
	for i, x := range X {
		out[i] = s.Predict(x)
	}
}

type sinModel float64

func (s sinModel) Predict(x []float64) float64 {
	out := float64(s)
	for i, v := range x {
		out += math.Sin(v*float64(i+1)) * float64(s)
	}
	return out
}
