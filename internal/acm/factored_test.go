package acm_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
	"ceal/internal/workflow"
)

var allCombiners = []acm.Combiner{acm.Max, acm.Sum, acm.Min, acm.Mean, acm.BottleneckSum}

// cellModel is a component model as the tuner builds it: a boosted tree
// in log space, fitted on the codes of its declared columns.
type cellModel struct {
	m     *xgb.Model
	coder *cfgspace.Coder
}

func (c cellModel) Cuts() [][]uint16 { return c.m.Cuts() }

func (c cellModel) PredictRows(q *score.Codes, col int, rows []int32, out []float64) {
	c.m.PredictRows(q, col, rows, out)
	for i, v := range out {
		out[i] = math.Exp(v)
	}
}

func (c cellModel) Columns() *cfgspace.Coder { return c.coder }

// PredictFloat walks the float thresholds: the oracle of the coded walk.
func (c cellModel) PredictFloat(x []float64) float64 {
	out := []float64{0}
	c.m.PredictBatchOnInto(nil, [][]float64{x}, out)
	return math.Exp(out[0])
}

// fitCell fits a cellModel to sub-configurations subs under coder's
// columns and targets y under params p.
func fitCell(t *testing.T, coder *cfgspace.Coder, subs []cfgspace.Config, y []float64, p xgb.Params) cellModel {
	t.Helper()
	q, err := score.Encode(nil, subs, coder)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int32, len(subs))
	for i := range rows {
		rows[i] = int32(i)
	}
	model, err := xgb.NewTrainer(nil).Fit(q, rows, y, p)
	if err != nil {
		t.Fatal(err)
	}
	return cellModel{model, coder}
}

// columns returns a part's feature columns (nil: none).
func columns(part *acm.Part) *cfgspace.Coder { return part.Predictor.(acm.Oracle).Columns() }

// layout is a feature matrix over the configurations under test and where
// each part's features sit in it: what a problem that declares its
// feature columns hands the kernel.
type layout struct {
	name  string
	q     *score.Codes
	spans []acm.Span
}

// declared codes cfgs under coder's columns.
func declared(name string, cfgs []cfgspace.Config, coder *cfgspace.Coder, spans []acm.Span) layout {
	var mat score.Matrix
	q, err := mat.Codes(score.New(2), cfgs, coder)
	if err != nil {
		panic(err) // every layout under test is declared narrow enough to code
	}
	return layout{name: name, q: q, spans: spans}
}

// own lays the parts' columns side by side, as the tuner's workflow
// columns begin.
func own(lf *acm.LowFidelity, cfgs []cfgspace.Config) layout {
	var parts []cfgspace.NamedSpace
	spans := make([]acm.Span, len(lf.Parts))
	at := 0
	for j := range lf.Parts {
		part := &lf.Parts[j]
		space := &cfgspace.Space{Params: make([]cfgspace.Param, part.Hi-part.Lo), Coder: columns(part)}
		if space.Coder == nil {
			space.Coder = cfgspace.NewCoder(nil, nil)
		}
		parts = append(parts, cfgspace.NamedSpace{Name: part.Name, Space: space})
		spans[j] = acm.Span{Lo: at, Hi: at + space.Coder.Width()}
		at = spans[j].Hi
	}
	return declared("own", cfgs, cfgspace.Concat(nil, parts...).Coder, spans)
}

// reversed lays the parts' columns out last part first, behind a column
// no part reads: the lattices of own at other offsets.
func reversed(lf *acm.LowFidelity, cfgs []cfgspace.Config) layout {
	spans := make([]acm.Span, len(lf.Parts))
	cols := []cfgspace.Param{cfgspace.NewParam("len", 0, 64)}
	for j := len(lf.Parts) - 1; j >= 0; j-- {
		if c := columns(&lf.Parts[j]); c != nil {
			spans[j] = acm.Span{Lo: len(cols), Hi: len(cols) + c.Width()}
			cols = append(cols, c.Cols...)
		}
	}
	coder := cfgspace.NewCoder(cols, func(cfg cfgspace.Config, dst []int) {
		dst[0] = len(cfg)
		for j := range lf.Parts {
			if part := &lf.Parts[j]; spans[j].Lo < spans[j].Hi {
				columns(part).Ints(part.Sub(cfg), dst[spans[j].Lo:spans[j].Hi])
			}
		}
	})
	return declared("reversed", cfgs, coder, spans)
}

// benchLayout is a benchmark's workflow columns, which hold its
// configurable components' columns in order from column 0.
func benchLayout(bench *workflow.Benchmark, cfgs []cfgspace.Config) layout {
	spans := make([]acm.Span, len(bench.Components))
	at := 0
	for j, cs := range bench.Components {
		if cs.Space != nil {
			spans[j] = acm.Span{Lo: at, Hi: at + cs.Space.Columns().Width()}
			at = spans[j].Hi
		}
	}
	return declared("workflow", cfgs, bench.Space.Columns(), spans)
}

// checkFactoredBothWays runs checkFactored on lf as given — its fitted
// parts cellModels — and again with each fitted model's float walk as a
// Decoded part, whose every lattice value is its own cell.
func checkFactoredBothWays(t *testing.T, lf *acm.LowFidelity, cfgs []cfgspace.Config, layouts ...layout) {
	t.Helper()
	checkFactored(t, lf, cfgs, layouts...)
	for j := range lf.Parts {
		if c, ok := lf.Parts[j].Predictor.(cellModel); ok {
			lf.Parts[j].Predictor = acm.Decoded{Coder: c.coder, F: c.PredictFloat}
		}
	}
	checkFactored(t, lf, cfgs, layouts...)
}

// checkFactored compares ScoreCodes over the parts' own columns and over
// each layout, at widths 1, 2, 4 and 8, with Score on every configuration,
// bitwise, under every combiner.
func checkFactored(t *testing.T, lf *acm.LowFidelity, cfgs []cfgspace.Config, layouts ...layout) {
	t.Helper()
	layouts = append(layouts, own(lf, cfgs))
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
			for _, l := range layouts {
				check(l.name, lf.ScoreCodes(e, l.q, nil, l.spans, cfgs))
			}
		}
	}
}

// TestFactoredScoreMatchesReference: the kernel over rank codes equals the
// per-configuration Score on every row, bitwise, under every combiner and
// at every width, with component models and core counts built the way the
// live problems build them:
//   - LV, HS and GP (with its two unconfigurable plotters), over the
//     components' own columns and over the workflow columns the benchmark
//     declares;
//   - HS with heat fitted on 500 history samples of its 7 features;
//   - a part with 255 thresholds on each of nine features, whose bucket
//     radices multiply to 2^72, past any packing of a bucket tuple into
//     one uint64 (a fitted heat model's multiply to about 1e11);
//   - one HS model scoring, in turn, the pool's codes, 200 of the pool's
//     rows drawn with replacement, the pool coded with its parts' columns
//     reversed (other offsets, the same lattices) and the pool again; then
//     all four at once.
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
			coder := cs.Space.Columns()
			n := 60
			if j == 0 {
				n = history
			}
			subs := cs.Space.SampleN(rng, n)
			y := make([]float64, n)
			for i, sub := range subs {
				x := coder.Features(sub)
				y[i] = math.Log(1 + x[0]/x[len(x)-1]*float64(1+i%7))
			}
			part.Predictor = fitCell(t, coder, subs, y, xgb.DefaultParams())
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
		if n := columns(&lf.Parts[0]).Width(); n != 7 {
			t.Fatalf("heat has %d features, want 7", n)
		}
		checkFactored(t, lf, pool, benchLayout(bench, pool))
	})
	t.Run("one model across code sources", func(t *testing.T) {
		bench := workflow.HS(m)
		rng := rand.New(rand.NewPCG(7, 4))
		lf := benchModel(bench, 500, rng)
		pool := bench.Space.SampleN(rng, 3000)
		l, r := benchLayout(bench, pool), reversed(lf, pool)
		holdout := make([]int, 200)
		for k := range holdout {
			holdout[k] = rng.IntN(len(pool))
		}
		holdout[len(holdout)-1] = holdout[0]
		calls := []struct {
			name string
			l    layout
			rows []int
		}{
			{"pool", l, nil},
			{"holdout", l, holdout},
			{"reversed", r, nil},
			{"pool again", l, nil},
		}
		// cfgsOf lists the configurations a call scores, one a score.
		cfgsOf := func(rows []int) []cfgspace.Config {
			if rows == nil {
				return pool
			}
			cfgs := make([]cfgspace.Config, len(rows))
			for k, r := range rows {
				cfgs[k] = pool[r]
			}
			return cfgs
		}
		for _, comb := range []acm.Combiner{acm.Max, acm.BottleneckSum} {
			lf.Combine = comb
			for _, e := range []*score.Engine{nil, score.New(2), score.New(4)} {
				for _, c := range calls {
					got := lf.ScoreCodes(e, c.l.q, c.rows, c.l.spans, pool)
					for i, cfg := range cfgsOf(c.rows) {
						if want := lf.Score(cfg); math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("%v %s workers=%d: cfg %v scores %v, Score %v", comb, c.name, e.Workers(), cfg, got[i], want)
						}
					}
				}
			}
			// The four at once, one goroutine each, sharing the model and
			// the coder's lattice tables.
			var wg sync.WaitGroup
			for _, c := range calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got := lf.ScoreCodes(score.New(2), c.l.q, c.rows, c.l.spans, pool)
					for i, cfg := range cfgsOf(c.rows) {
						if want := lf.Score(cfg); math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Errorf("%v %s concurrently: cfg %v scores %v, Score %v", comb, c.name, cfg, got[i], want)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	})
	t.Run("radix past 2^64", func(t *testing.T) {
		// Nine radices of 256: packed in one uint64, feature 0's bucket
		// would be multiplied by 2^64 and lost, and rows differing only
		// there would share a cell. Cells are numbered by their whole
		// bucket tuple, so they stay apart.
		const dim = 9
		rng := rand.New(rand.NewPCG(7, 3))
		cols := make([]cfgspace.Param, dim)
		for k := range cols {
			cols[k] = cfgspace.NewParam(fmt.Sprint("x", k), 0, 255)
		}
		lf := &acm.LowFidelity{Parts: []acm.Part{
			{Name: "steps", Predictor: acm.Decoded{Coder: cfgspace.NewCoder(cols, nil), F: stepModel}, Lo: 0, Hi: dim,
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
}

// TestFactoredScoreMatchesReferenceGenerated repeats the comparison on
// generated models far from the paper's: one to five parts of zero to
// three parameters each (zero = unconfigurable, in any position), narrow
// ranges so sub-configurations repeat heavily, columns that are the
// parameters or derived from them, predictions of both signs or from a
// boosted model fitted on 15 rows (with and without the cell methods), and
// core counts that include the non-positive values fold clamps.
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
				lf.Parts = append(lf.Parts, part)
				continue
			}
			cols := make([]cfgspace.Param, part.Hi-part.Lo)
			for k := range cols {
				cols[k] = cfgspace.NewParam(fmt.Sprint("x", k), -2, 3)
			}
			coder := cfgspace.NewCoder(cols, nil)
			if trial%2 == 1 {
				// Derived columns: each parameter times the first, on the
				// lattice of multiples of 1 in [-6, 9].
				for k := range cols {
					cols[k] = cfgspace.NewParam(fmt.Sprint("y", k), -6, 9)
				}
				coder = cfgspace.NewCoder(cols, func(sub cfgspace.Config, dst []int) {
					for k, v := range sub {
						dst[k] = v * sub[0]
					}
				})
			}
			part.Predictor = acm.Decoded{Coder: coder, F: sinModel(salt)}
			if rng.IntN(2) == 0 {
				subs, y := make([]cfgspace.Config, 15), make([]float64, 15)
				for i := range subs {
					subs[i] = make(cfgspace.Config, part.Hi-part.Lo)
					for k := range subs[i] {
						subs[i][k] = rng.IntN(6) - 2
					}
					y[i] = sinModel(salt)(coder.Features(subs[i])) / 4
				}
				part.Predictor = fitCell(t, coder, subs, y, xgb.DefaultParams())
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

// stepModel predicts, over features on the lattice 0..255, the sum of
// each feature's value times 1 + its index squared, so rows in different
// cells mostly predict differently.
func stepModel(x []float64) float64 {
	out := 0.0
	for f, v := range x {
		out += v * float64(1+f*f)
	}
	return out
}

// sinModel is a smooth prediction of both signs.
func sinModel(s float64) func(x []float64) float64 {
	return func(x []float64) float64 {
		out := s
		for i, v := range x {
			out += math.Sin(v*float64(i+1)) * s
		}
		return out
	}
}
