package tuner

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"math/rand/v2"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/metrics"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
)

func newTestRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0)) }

// Predict returns the surrogate's metric prediction for cfg by the float
// walk over its declared features: the one-row oracle the coded batch and
// pool paths are checked against.
func (s *Surrogate) Predict(cfg cfgspace.Config) float64 {
	if s.model == nil {
		panic("tuner: Predict on untrained surrogate")
	}
	out := []float64{0}
	s.model.PredictBatchOnInto(nil, [][]float64{s.coder.Features(cfg)}, out)
	return unlogTarget(out[0])
}

func TestAlgorithmNames(t *testing.T) {
	want := map[string]bool{
		"RS": true, "AL": true, "GEIST": true, "ALpH": true,
		"CEAL": true,
	}
	for _, alg := range allAlgorithms() {
		if !want[alg.Name()] {
			t.Errorf("unexpected algorithm name %q", alg.Name())
		}
		delete(want, alg.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing algorithms: %v", want)
	}
}

func TestSurrogatePredictUntrainedPanics(t *testing.T) {
	p := synthProblem(41, 20)
	s := newSurrogate(p)
	defer func() {
		if recover() == nil {
			t.Fatal("Predict on untrained surrogate did not panic")
		}
	}()
	s.Predict(p.Pool[0])
}

func TestSurrogateTrainEmptyErrors(t *testing.T) {
	p := synthProblem(41, 20)
	s := newSurrogate(p)
	if err := s.Train(&State{Problem: p}); err == nil {
		t.Fatal("training on zero samples accepted")
	}
}

// TestSurrogateTrainRejectsBadFeatures: pool codes discovered over
// features one of which is NaN (ALpH's form of codes) fail the refit whose
// samples reach that row with xgb.ErrBadTrainingData, and the surrogate
// stays usable — the next Train on clean samples matches a surrogate that
// never saw the bad batch.
func TestSurrogateTrainRejectsBadFeatures(t *testing.T) {
	p := synthProblem(41, 60)
	samples, err := measureBatch(p, p.Pool[:30])
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, len(p.Pool))
	for i, cfg := range p.Pool {
		rows[i] = p.Space.Features(cfg)
	}
	rows[25][0] = math.NaN()
	q := score.QuantizeRows(nil, rows)
	first := func(n int) *State {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		return &State{Problem: p, Samples: samples[:n], Indices: idxs}
	}
	discovered := func() *Surrogate {
		s := newSurrogate(p)
		s.codes = func() (*score.Codes, error) { return q, nil }
		return s
	}
	s := discovered()
	if err := s.Train(first(20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train(first(30)); !errors.Is(err, xgb.ErrBadTrainingData) {
		t.Fatalf("Train over a NaN feature: err = %v, want ErrBadTrainingData", err)
	}
	if err := s.Train(first(25)); err != nil {
		t.Fatal(err)
	}
	clean := discovered()
	if err := clean.Train(first(25)); err != nil {
		t.Fatal(err)
	}
	got, err := s.PredictPoolInto(make([]float64, len(p.Pool)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.PredictPoolInto(make([]float64, len(p.Pool)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("after a rejected batch: pool row %d predicts %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLogTargetGuardsTinyValues(t *testing.T) {
	if math.IsInf(logTarget(0), -1) || math.IsNaN(logTarget(-1)) {
		t.Fatal("logTarget must clamp nonpositive values")
	}
	if got := unlogTarget(logTarget(42)); math.Abs(got-42) > 1e-9 {
		t.Fatalf("log round trip = %v", got)
	}
}

func TestTrainComponentModelsErrors(t *testing.T) {
	// mR = 0 and no history: must fail loudly.
	p := synthProblem(51, 20)
	rng := newTestRNG(51)
	if _, err := trainComponentModels(p, 0, rng); err == nil {
		t.Fatal("no measurements accepted for component models")
	}
	// With mR it succeeds and reports costs.
	cm, err := trainComponentModels(p, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for j := range p.Components {
		if len(cm.newSamples[j]) != 5 {
			t.Fatalf("component %d measured %d times, want 5", j, len(cm.newSamples[j]))
		}
	}
	if cm.lowFi == nil || len(cm.lowFi.Parts) != 2 {
		t.Fatal("low-fidelity model incomplete")
	}
}

func TestFixedComponentGetsConstantModel(t *testing.T) {
	// A problem with one unconfigurable component: its predictor must be a
	// constant from one free measurement.
	comp := &cfgspace.Space{Params: []cfgspace.Param{
		cfgspace.NewParam("a", 2, 50),
		cfgspace.NewParam("b", 1, 10),
	}}
	space := cfgspace.Concat(nil, cfgspace.NamedSpace{Name: "sim", Space: comp})
	rng := newTestRNG(53)
	p := &Problem{
		Name:  "fixedtest",
		Space: space,
		Components: []ComponentInfo{
			{Name: "sim", Space: comp},
			{Name: "plot"}, // unconfigurable
		},
		Pool: space.SampleN(rng, 50),
		Eval: &synthEval{dims: []int{2, 0}},
		Seed: 53,
	}
	cm, err := trainComponentModels(p, 4, newTestRNG(54))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := cm.lowFi.Parts[1].Predictor.(acm.ConstPredictor); !ok || got != 1.0 {
		t.Fatalf("fixed component prediction = %v, want the solo value 1.0", got)
	}
	if len(cm.newSamples[1]) != 0 {
		t.Fatal("fixed component charged measurement budget")
	}
}

func TestLowFidelityScoresValidates(t *testing.T) {
	p := synthProblem(55, 10)
	p.Pool = nil
	if _, err := LowFidelityScores(p, 4); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestFinishFallbackWithoutSamples(t *testing.T) {
	p := synthProblem(57, 10)
	scores := make([]float64, len(p.Pool))
	for i := range scores {
		scores[i] = float64(10 - i)
	}
	res := finish(p, scores, nil, nil, -1, nil)
	// Lowest score is the last pool entry.
	if res.Best.Key() != p.Pool[len(p.Pool)-1].Key() {
		t.Fatalf("fallback best = %v", res.Best)
	}
	if res.CollectionCost != 0 {
		t.Fatalf("cost without samples = %v", res.CollectionCost)
	}
}

func TestExhaustiveFindsPoolOptimum(t *testing.T) {
	p := synthProblem(61, 80)
	res, err := Exhaustive{}.Tune(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	truth := trueValues(p)
	best := truth[metrics.TopIndices(1, truth)[0]]
	got, _ := p.Eval.MeasureWorkflow(res.Best)
	if got != best {
		t.Fatalf("exhaustive found %v, pool best is %v", got, best)
	}
	if r := metrics.RecallScore(5, res.PoolScores, truth); r != 100 {
		t.Fatalf("exhaustive recall = %v", r)
	}
}

func TestCEALApproachesExhaustiveOnSmallPool(t *testing.T) {
	// On a small pool, CEAL with a quarter of the exhaustive budget should
	// land within 25% of the true optimum on average.
	var cealSum, exhaustiveSum float64
	const reps = 8
	for rep := 0; rep < reps; rep++ {
		p := synthProblem(uint64(300+rep), 120)
		ce, err := NewCEAL().Tune(p, 30)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := p.Eval.MeasureWorkflow(ce.Best)
		cealSum += v
		ex, err := Exhaustive{}.Tune(p, 120)
		if err != nil {
			t.Fatal(err)
		}
		v, _ = p.Eval.MeasureWorkflow(ex.Best)
		exhaustiveSum += v
	}
	if cealSum > exhaustiveSum*1.25 {
		t.Fatalf("CEAL mean %v too far from exhaustive mean %v", cealSum/reps, exhaustiveSum/reps)
	}
}

func TestBudgetPropertyAcrossAlgorithms(t *testing.T) {
	// Property: for any budget in [6, 40] and any seed, no algorithm
	// exceeds its measurement budget and every result is well-formed.
	f := func(seed uint64) bool {
		budget := 6 + int(seed%35)
		p := synthProblem(seed, 150)
		for _, alg := range []Algorithm{RS{}, NewAL(), NewCEAL()} {
			res, err := alg.Tune(p, budget)
			if err != nil {
				return false
			}
			compRuns := 0
			for _, cs := range res.ComponentSamples {
				if len(cs) > compRuns {
					compRuns = len(cs)
				}
			}
			if len(res.Samples)+compRuns > budget {
				return false
			}
			if len(res.PoolScores) != len(p.Pool) || !p.Space.IsValid(res.Best) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestExtremeBudgets(t *testing.T) {
	// Degenerate budgets must not crash or overrun.
	for _, budget := range []int{2, 3, 4} {
		for _, alg := range allAlgorithms() {
			p := synthProblem(uint64(70+budget), 100)
			res, err := alg.Tune(p, budget)
			if err != nil {
				t.Fatalf("%s budget=%d: %v", alg.Name(), budget, err)
			}
			compRuns := 0
			for _, cs := range res.ComponentSamples {
				if len(cs) > compRuns {
					compRuns = len(cs)
				}
			}
			if len(res.Samples)+compRuns > budget {
				t.Fatalf("%s budget=%d: %d+%d runs", alg.Name(), budget, len(res.Samples), compRuns)
			}
		}
	}
}

func TestNegativeBudgetIsAnError(t *testing.T) {
	// RS used to panic in poolTracker.takeRandom (makeslice) on budget -1;
	// a budget can arrive off the wire or a flag, so it must be an error.
	for _, alg := range allAlgorithms() {
		for _, budget := range []int{-1, -1000} {
			res, err := alg.Tune(synthProblem(90, 100), budget)
			if err == nil || res != nil {
				t.Fatalf("%s budget=%d: result %v, err %v; want an error", alg.Name(), budget, res, err)
			}
		}
	}
}

func TestPoolSmallerThanBudget(t *testing.T) {
	p := synthProblem(81, 10)
	res, err := NewCEAL().Tune(p, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) > 10 {
		t.Fatalf("measured %d samples from a 10-config pool", len(res.Samples))
	}
}
