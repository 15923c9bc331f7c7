package acm

import (
	"math"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/score"
)

func TestCombiners(t *testing.T) {
	vs := []float64{3, 1, 2}
	cases := []struct {
		c    Combiner
		want float64
	}{
		{Max, 3},
		{Min, 1},
		{Sum, 6},
		{Mean, 2},
	}
	for _, tc := range cases {
		if got := tc.c.Combine(vs); got != tc.want {
			t.Errorf("%v.Combine = %v, want %v", tc.c, got, tc.want)
		}
	}
	if Max.Combine(nil) != 0 {
		t.Error("empty combine should be 0")
	}
}

func TestCombinerString(t *testing.T) {
	if Max.String() != "max" || Sum.String() != "sum" || Min.String() != "min" || Mean.String() != "mean" {
		t.Fatal("combiner names wrong")
	}
}

// Oracle is a test predictor's per-configuration reference: its feature
// columns (nil: none) and its prediction from their float values.
type Oracle interface {
	Predictor
	Columns() *cfgspace.Coder
	PredictFloat(x []float64) float64
}

func (ConstPredictor) Columns() *cfgspace.Coder { return nil }

func (c ConstPredictor) PredictFloat([]float64) float64 { return float64(c) }

// Decoded is a test Predictor: F of a row's values over Coder's columns,
// decoded from its codes, every value of a lattice its own cell.
type Decoded struct {
	Coder *cfgspace.Coder
	F     func(x []float64) float64
}

func (d Decoded) Columns() *cfgspace.Coder { return d.Coder }

func (d Decoded) PredictFloat(x []float64) float64 { return d.F(x) }

// Cuts puts a cut between every two adjacent lattice values.
func (d Decoded) Cuts() [][]uint16 {
	cuts := make([][]uint16, d.Coder.Width())
	for f, c := range d.Coder.Cols {
		for k := 1; k < c.Count(); k++ {
			cuts[f] = append(cuts[f], uint16(k))
		}
	}
	return cuts
}

func (d Decoded) PredictRows(q *score.Codes, col int, rows []int32, out []float64) {
	x := make([]float64, d.Coder.Width())
	for i, r := range rows {
		for f := range x {
			x[f] = q.Value(col+f, q.Row(int(r))[col+f])
		}
		out[i] = d.F(x)
	}
}

// Score is the per-configuration oracle of ScoreCodes: every part predicts
// from its own freshly computed features through its Oracle, and the
// predictions fold.
func (lf *LowFidelity) Score(cfg cfgspace.Config) float64 {
	vs := make([]float64, len(lf.Parts))
	var cores []float64
	if lf.Combine == BottleneckSum {
		cores = make([]float64, len(lf.Parts))
	}
	for j := range lf.Parts {
		part := &lf.Parts[j]
		o := part.Predictor.(Oracle)
		var x []float64
		if c := o.Columns(); c != nil {
			x = c.Features(part.Sub(cfg))
		}
		vs[j] = o.PredictFloat(x)
		if cores != nil {
			cores[j] = part.cores(part.Sub(cfg))
		}
	}
	return lf.fold(vs, cores)
}

// raw is a one-parameter part's columns: the parameter itself.
var raw = cfgspace.NewCoder([]cfgspace.Param{cfgspace.NewParam("x", 0, 200)}, nil)

// affine predicts a·x + b over raw.
func affine(a, b float64) Decoded {
	return Decoded{Coder: raw, F: func(x []float64) float64 { return a*x[0] + b }}
}

// scoreCodes is ScoreCodes over cfgs coded by the parts' columns side by
// side.
func (lf *LowFidelity) scoreCodes(cfgs []cfgspace.Config) []float64 {
	var parts []cfgspace.NamedSpace
	spans := make([]Span, len(lf.Parts))
	at := 0
	for j := range lf.Parts {
		part := &lf.Parts[j]
		space := &cfgspace.Space{Params: make([]cfgspace.Param, part.Hi-part.Lo), Coder: part.Predictor.(Oracle).Columns()}
		if space.Coder == nil {
			space.Coder = cfgspace.NewCoder(nil, nil)
		}
		parts = append(parts, cfgspace.NamedSpace{Name: part.Name, Space: space})
		spans[j] = Span{at, at + space.Coder.Width()}
		at = spans[j].Hi
	}
	var mat score.Matrix
	q, err := mat.Codes(nil, cfgs, cfgspace.Concat(nil, parts...).Coder)
	if err != nil {
		panic(err)
	}
	return lf.ScoreCodes(nil, q, nil, spans, cfgs)
}

func TestLowFidelityScore(t *testing.T) {
	lf := &LowFidelity{
		Combine: Max,
		Parts: []Part{
			{Name: "sim", Predictor: affine(2, 0), Lo: 0, Hi: 1},
			{Name: "viz", Predictor: affine(1, 5), Lo: 1, Hi: 2},
		},
	}
	// cfg = (3, 4): parts predict 6 and 9 -> max 9.
	if got := lf.Score(cfgspace.Config{3, 4}); got != 9 {
		t.Fatalf("Score = %v, want 9", got)
	}
	lf.Combine = Sum
	if got := lf.Score(cfgspace.Config{3, 4}); got != 15 {
		t.Fatalf("Sum score = %v, want 15", got)
	}
	if batch := lf.scoreCodes([]cfgspace.Config{{3, 4}, {1, 1}}); batch[0] != 15 || batch[1] != 8 {
		t.Fatalf("ScoreCodes = %v", batch)
	}
}

func TestConstPredictor(t *testing.T) {
	var p Predictor = ConstPredictor(97)
	out := []float64{0, 0}
	p.PredictRows(nil, 0, []int32{3, 0}, out)
	if p.Cuts() != nil || out[0] != 97 || out[1] != 97 {
		t.Fatal("ConstPredictor not constant")
	}
}

func TestForObjective(t *testing.T) {
	if ForObjective(false) != Max {
		t.Fatal("execution time should use max (Eqn. 1)")
	}
	if ForObjective(true) != BottleneckSum {
		t.Fatal("computer time should use the bottleneck-scaled aggregate")
	}
}

func TestBottleneckSumScore(t *testing.T) {
	lf := &LowFidelity{
		Combine: BottleneckSum,
		Parts: []Part{
			{
				Name:      "sim",
				Predictor: affine(1, 0), // solo comp prediction = x
				Lo:        0,
				Hi:        1,
				Cores:     func(cfgspace.Config) float64 { return 72 },
			},
			{
				Name:      "viz",
				Predictor: affine(1, 0),
				Lo:        1,
				Hi:        2,
				Cores:     func(cfgspace.Config) float64 { return 36 },
			},
		},
	}
	// cfg (144, 36): exec candidates 144/72=2 and 36/36=1; makespan 2;
	// total cores 108 -> 216.
	if got := lf.Score(cfgspace.Config{144, 36}); got != 216 {
		t.Fatalf("BottleneckSum score = %v, want 216", got)
	}
}

func TestBottleneckSumNeedsCores(t *testing.T) {
	lf := &LowFidelity{
		Combine: BottleneckSum,
		Parts:   []Part{{Name: "x", Predictor: ConstPredictor(1)}},
	}
	for name, score := range map[string]func(){
		"Score":      func() { lf.Score(cfgspace.Config{1}) },
		"ScoreCodes": func() { lf.scoreCodes([]cfgspace.Config{{1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: missing Cores did not panic", name)
				}
			}()
			score()
		}()
	}
}

func TestBottleneckSumCombineDirectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BottleneckSum.Combine did not panic")
		}
	}()
	BottleneckSum.Combine([]float64{1, 2})
}

func TestMaxWithNegatives(t *testing.T) {
	if got := Max.Combine([]float64{-5, -3}); got != -3 {
		t.Fatalf("Max with negatives = %v", got)
	}
	if got := Min.Combine([]float64{math.Inf(1), 3}); got != 3 {
		t.Fatalf("Min with inf = %v", got)
	}
}
