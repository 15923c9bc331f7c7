package xgb

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ceal/internal/score"
)

// predictAll scores every row of X serially through the batch kernel.
func predictAll(m *Model, X [][]float64) []float64 {
	out := make([]float64, len(X))
	m.PredictBatchOnInto(nil, X, out)
	return out
}

func rmse(pred, y []float64) float64 {
	sum := 0.0
	for i := range y {
		d := pred[i] - y[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(y)))
}

func makeQuadratic(n int, noise float64, seed uint64) ([][]float64, []float64) {
	rng := rand.New(rand.NewPCG(seed, 0))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		X[i] = []float64{a, b}
		y[i] = a*a + 0.5*b + rng.NormFloat64()*noise
	}
	return X, y
}

func TestFitReducesTrainingError(t *testing.T) {
	X, y := makeQuadratic(80, 0.01, 1)
	m, err := FitOn(nil, X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	baseErr := 0.0
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		baseErr += (v - mean) * (v - mean)
	}
	baseErr = math.Sqrt(baseErr / float64(len(y)))
	fitErr := rmse(predictAll(m, X), y)
	if fitErr >= baseErr/3 {
		t.Fatalf("training RMSE %v barely better than constant baseline %v", fitErr, baseErr)
	}
}

func TestMoreRoundsFitTighterProperty(t *testing.T) {
	// Property: on its own training set, squared-error boosting with more
	// rounds never fits worse (same seed, no subsampling).
	f := func(seed uint64) bool {
		X, y := makeQuadratic(40, 0.1, seed)
		p := DefaultParams()
		p.Rounds = 10
		m10, err := FitOn(nil, X, y, p)
		if err != nil {
			return false
		}
		p.Rounds = 80
		m80, err := FitOn(nil, X, y, p)
		if err != nil {
			return false
		}
		return rmse(predictAll(m80, X), y) <= rmse(predictAll(m10, X), y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralizesOnHeldOut(t *testing.T) {
	X, y := makeQuadratic(200, 0.05, 7)
	Xt, yt := makeQuadratic(50, 0.05, 8)
	m, err := FitOn(nil, X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(predictAll(m, Xt), yt); e > 0.5 {
		t.Fatalf("held-out RMSE %v too high for a smooth target", e)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	X, y := makeQuadratic(60, 0.1, 3)
	m1, _ := FitOn(nil, X, y, DefaultParams())
	m2, _ := FitOn(nil, X, y, DefaultParams())
	for i := range X {
		if m1.PredictRow(X[i]) != m2.PredictRow(X[i]) {
			t.Fatal("the same data produced different models")
		}
	}
}

func TestConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{5, 5, 5}
	m, err := FitOn(nil, X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PredictRow([]float64{10}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("constant target predicted as %v", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitOn(nil, nil, nil, DefaultParams()); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := FitOn(nil, [][]float64{{1}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	p := DefaultParams()
	p.Rounds = 0
	if _, err := FitOn(nil, [][]float64{{1}}, []float64{1}, p); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestRounds(t *testing.T) {
	X, y := makeQuadratic(20, 0.1, 5)
	p := DefaultParams()
	p.Rounds = 17
	m, err := FitOn(nil, X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds() != 17 {
		t.Fatalf("Rounds = %d, want 17", m.Rounds())
	}
}

func TestFeatureImportanceConcentrates(t *testing.T) {
	// Target depends only on feature 0; importance must concentrate there.
	rng := rand.New(rand.NewPCG(11, 0))
	X := make([][]float64, 120)
	y := make([]float64, 120)
	for i := range X {
		X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		y[i] = X[i][0] * X[i][0]
	}
	m, err := FitOn(nil, X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance(3)
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
	if imp[0] < 0.9 {
		t.Fatalf("feature 0 importance %v, want > 0.9 (got %v)", imp[0], imp)
	}
}

func TestFeatureImportanceConstantModel(t *testing.T) {
	m, err := FitOn(nil, [][]float64{{1}, {2}}, []float64{5, 5}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance(1)
	if imp[0] != 0 {
		t.Fatalf("constant model importance = %v, want 0", imp[0])
	}
}

func TestPredictBatchRowOrderInvariantProperty(t *testing.T) {
	// Property: predictions depend only on the row itself, never on its
	// neighbours or position — permuting the batch permutes the output.
	X, y := makeQuadratic(120, 0.1, 7)
	m, err := FitOn(nil, X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	base := predictAll(m, X)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		perm := rng.Perm(len(X))
		shuffled := make([][]float64, len(X))
		for i, j := range perm {
			shuffled[i] = X[j]
		}
		got := make([]float64, len(shuffled))
		m.PredictBatchOnInto(score.New(1+int(seed%8)), shuffled, got)
		for i, j := range perm {
			if math.Float64bits(got[i]) != math.Float64bits(base[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
