package tuner

import (
	"ceal/internal/dispatch"
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/metrics"
)

// synthEval is a deterministic analytic stand-in for the workflow
// simulator: two components whose solo times follow simple scaling laws,
// coupled as their max times a coupling distortion that solo measurements
// cannot see.
type synthEval struct {
	dims []int
}

func (e *synthEval) componentTime(j int, cfg cfgspace.Config) float64 {
	work := []float64{200.0, 60.0}[j]
	a, b := float64(cfg[0]), float64(cfg[1])
	return work/a + 0.05*b + 0.02*math.Sqrt(a)
}

func (e *synthEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	t1 := e.componentTime(0, cfg[:2])
	t2 := e.componentTime(1, cfg[2:])
	// Coupling: synchronization pushes the makespan above the pure max,
	// more so when the two components are imbalanced.
	imbalance := math.Abs(t1-t2) / (t1 + t2)
	return math.Max(t1, t2) * (1 + 0.3*imbalance), nil
}

func (e *synthEval) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	if cfg == nil {
		return 1.0, nil
	}
	return e.componentTime(j, cfg), nil
}

func synthProblem(seed uint64, poolSize int) *Problem {
	comp := func() *cfgspace.Space {
		return &cfgspace.Space{Params: []cfgspace.Param{
			cfgspace.NewParam("a", 2, 50),
			cfgspace.NewParam("b", 1, 10),
		}}
	}
	c1, c2 := comp(), comp()
	space := cfgspace.Concat(nil,
		cfgspace.NamedSpace{Name: "sim", Space: c1},
		cfgspace.NamedSpace{Name: "viz", Space: c2},
	)
	rng := rand.New(rand.NewPCG(seed, 100))
	pool := space.SampleN(rng, poolSize)
	return &Problem{
		Name:  "synthetic",
		Space: space,
		Components: []ComponentInfo{
			{Name: "sim", Space: c1},
			{Name: "viz", Space: c2},
		},
		Pool:      pool,
		Eval:      &synthEval{dims: []int{2, 2}},
		Combiner:  acm.Max,
		Seed:      seed,
		ScorePool: true, // the tests here evaluate the final model's pool scores
	}
}

// trueValues looks up the exact metric for every pool configuration.
func trueValues(p *Problem) []float64 {
	out := make([]float64, len(p.Pool))
	for i, cfg := range p.Pool {
		out[i], _ = p.Eval.MeasureWorkflow(cfg)
	}
	return out
}

func allAlgorithms() []Algorithm {
	return []Algorithm{RS{}, NewAL(), NewGEIST(), NewALpH(), NewCEAL()}
}

func TestAlgorithmsRespectBudget(t *testing.T) {
	const budget = 24
	for _, alg := range allAlgorithms() {
		p := synthProblem(1, 300)
		res, err := alg.Tune(p, budget)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		workflowRuns := len(res.Samples)
		compRuns := 0
		for _, cs := range res.ComponentSamples {
			if len(cs) > compRuns {
				compRuns = len(cs) // mR equivalents = runs per component
			}
		}
		if workflowRuns+compRuns > budget {
			t.Errorf("%s: %d workflow + %d component-equivalents exceeds budget %d",
				alg.Name(), workflowRuns, compRuns, budget)
		}
		if workflowRuns == 0 {
			t.Errorf("%s: no workflow samples measured", alg.Name())
		}
		if len(res.PoolScores) != len(p.Pool) {
			t.Errorf("%s: PoolScores has %d entries, pool has %d", alg.Name(), len(res.PoolScores), len(p.Pool))
		}
		if res.CollectionCost <= 0 {
			t.Errorf("%s: CollectionCost = %v", alg.Name(), res.CollectionCost)
		}
		if !p.Space.IsValid(res.Best) {
			t.Errorf("%s: Best %v is not a valid configuration", alg.Name(), res.Best)
		}
	}
}

// TestResultOwnsItsConfigurations: a Result's samples hold copies, so a
// retained Result keeps none of the pool's storage alive — overwriting
// the pool after the run leaves every sample intact.
func TestResultOwnsItsConfigurations(t *testing.T) {
	for _, alg := range allAlgorithms() {
		p := synthProblem(3, 200)
		res, err := alg.Tune(p, 16)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for _, cfg := range p.Pool {
			clear(cfg)
		}
		for _, s := range res.Samples {
			if !p.Space.IsValid(s.Cfg) {
				t.Fatalf("%s: sample %v changed with the pool", alg.Name(), s.Cfg)
			}
		}
	}
}

func TestAlgorithmsDeterministicBySeed(t *testing.T) {
	for _, alg := range allAlgorithms() {
		r1, err := alg.Tune(synthProblem(7, 200), 20)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		r2, err := alg.Tune(synthProblem(7, 200), 20)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if r1.Best.Key() != r2.Best.Key() {
			t.Errorf("%s: same seed gave Best %v vs %v", alg.Name(), r1.Best, r2.Best)
		}
		if len(r1.Samples) != len(r2.Samples) {
			t.Errorf("%s: same seed measured %d vs %d samples", alg.Name(), len(r1.Samples), len(r2.Samples))
		}
	}
}

func TestBestPredictedIsGood(t *testing.T) {
	// With a healthy budget every algorithm should land in the good region;
	// this guards against rank inversions (e.g. maximizing instead of
	// minimizing).
	for _, alg := range allAlgorithms() {
		p := synthProblem(3, 400)
		truth := trueValues(p)
		best := truth[metrics.TopIndices(1, truth)[0]]
		res, err := alg.Tune(p, 60)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		got, _ := p.Eval.MeasureWorkflow(res.Best)
		if got > best*2.0 {
			t.Errorf("%s: best predicted config has %.3f, pool best is %.3f", alg.Name(), got, best)
		}
	}
}

func TestCEALBeatsRSWithTinyBudget(t *testing.T) {
	// The paper's headline: under a tight budget CEAL finds better
	// configurations than random sampling. Averaged over replications to
	// be robust.
	const budget = 16
	const reps = 12
	var cealSum, rsSum float64
	for rep := 0; rep < reps; rep++ {
		seed := uint64(100 + rep)
		pc := synthProblem(seed, 300)
		rc, err := NewCEAL().Tune(pc, budget)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := pc.Eval.MeasureWorkflow(rc.Best)
		cealSum += v

		pr := synthProblem(seed, 300)
		rr, err := RS{}.Tune(pr, budget)
		if err != nil {
			t.Fatal(err)
		}
		v, _ = pr.Eval.MeasureWorkflow(rr.Best)
		rsSum += v
	}
	if cealSum >= rsSum {
		t.Errorf("CEAL mean %.3f not better than RS mean %.3f over %d reps", cealSum/reps, rsSum/reps, reps)
	}
}

func TestCEALSwitchesWithLargeBudget(t *testing.T) {
	p := synthProblem(5, 400)
	opts := DefaultCEALOptions(false)
	res, err := (&CEAL{Opts: &opts}).Tune(p, 120)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchIteration < 0 {
		t.Error("CEAL never switched to the high-fidelity model despite a large budget")
	}
}

func TestCEALWithHistorySkipsComponentRuns(t *testing.T) {
	p := synthProblem(9, 300)
	// Provide 100 historical solo measurements per component.
	rng := rand.New(rand.NewPCG(9, 200))
	p.History = make([][]Sample, len(p.Components))
	for j, c := range p.Components {
		for _, cfg := range c.Space.SampleN(rng, 100) {
			v, _ := p.Eval.MeasureComponent(j, cfg)
			p.History[j] = append(p.History[j], Sample{Cfg: cfg, Value: v})
		}
	}
	res, err := NewCEAL().Tune(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	for j, cs := range res.ComponentSamples {
		if len(cs) != 0 {
			t.Errorf("component %d: %d fresh solo runs despite history", j, len(cs))
		}
	}
	// All 20 budget units go to workflow runs.
	if len(res.Samples) < 15 {
		t.Errorf("only %d workflow samples with history available", len(res.Samples))
	}
}

func TestLowFidelityScoresRankWell(t *testing.T) {
	p := synthProblem(11, 500)
	scores, err := LowFidelityScores(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	truth := trueValues(p)
	// Fig. 4's claim: the white-box combination ranks far better than
	// chance. Random recall at n=25 over 500 is ~5%.
	if rs := metrics.RecallScore(25, scores, truth); rs < 20 {
		t.Errorf("low-fidelity top-25 recall = %v%%, want clearly above chance", rs)
	}
}

func TestPoolTrackerTakeTop(t *testing.T) {
	p := synthProblem(13, 50)
	tr := newPoolTracker(p)
	truth := trueValues(p)
	score := func(idxs []int, out []float64, _ float64) {
		for j, idx := range idxs {
			out[j] = truth[idx]
		}
	}
	got := tr.takeTop(3, score)
	want := metrics.TopIndices(3, truth)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("takeTop[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if tr.left() != 47 {
		t.Fatalf("tracker left = %d, want 47", tr.left())
	}
	// Taking again must not return duplicates.
	again := tr.takeTop(3, score)
	for _, idx := range again {
		for _, prev := range got {
			if idx == prev {
				t.Fatalf("takeTop returned duplicate %d", idx)
			}
		}
	}
}

func TestPoolTrackerTakeRandomExhausts(t *testing.T) {
	p := synthProblem(15, 10)
	tr := newPoolTracker(p)
	rng := rand.New(rand.NewPCG(1, 1))
	got := tr.takeRandom(25, rng)
	if len(got) != 10 || tr.left() != 0 {
		t.Fatalf("takeRandom drained %d, left %d", len(got), tr.left())
	}
	seen := map[int]bool{}
	for _, idx := range got {
		if seen[idx] {
			t.Fatalf("duplicate %d", idx)
		}
		seen[idx] = true
	}
}

func TestBiasedDetector(t *testing.T) {
	// Model ranks sample 0,1,2 best; truth agrees -> not biased.
	scores := []float64{1, 2, 3, 10, 11, 12}
	truth := []float64{1, 2, 3, 10, 11, 12}
	if biased(scores, truth) {
		t.Error("aligned model flagged as biased")
	}
	// Model's favourites are actually the worst -> biased.
	flipped := []float64{12, 11, 10, 3, 2, 1}
	if !biased(scores, flipped) {
		t.Error("inverted model not flagged as biased")
	}
}

func TestCapBatch(t *testing.T) {
	if capBatch(10, 20, 15, 2) != 3 {
		t.Fatal("capBatch should leave room for budget")
	}
	if capBatch(2, 20, 15, 2) != 2 {
		t.Fatal("capBatch should not inflate")
	}
	if capBatch(5, 10, 10, 0) != 0 {
		t.Fatal("capBatch should clamp at zero")
	}
}

func TestCEALAblationOptionsRun(t *testing.T) {
	for _, opts := range []CEALOptions{
		{Iterations: 4, RandomFrac: 0.2, ComponentFrac: 0.3, DisableSwitch: true},
		{Iterations: 4, RandomFrac: 0.2, ComponentFrac: 0.3, DisableBiasEscape: true},
		{Iterations: 1, RandomFrac: 0.5, ComponentFrac: 0.1},
		{Iterations: 10, RandomFrac: 0.05, ComponentFrac: 0.8},
	} {
		opts := opts
		p := synthProblem(31, 200)
		res, err := (&CEAL{Opts: &opts}).Tune(p, 20)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if opts.DisableSwitch && res.SwitchIteration != -1 {
			t.Errorf("DisableSwitch still switched at %d", res.SwitchIteration)
		}
		if len(res.Samples) == 0 {
			t.Errorf("opts %+v: no samples", opts)
		}
	}
}

func TestMeasureBatchParallelDeterministic(t *testing.T) {
	// A parallel collector must return identical samples in identical
	// order regardless of worker scheduling.
	mk := func(workers int) []Sample {
		p := synthProblem(23, 150)
		p.Runner = &dispatch.Runner{Workers: workers, Retry: dispatch.Retry{MaxRetries: 2}}
		cfgs := p.Pool[:20]
		samples, err := measureBatch(p, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	serial := mk(1)
	parallel := mk(8)
	for i := range serial {
		if serial[i].Cfg.Key() != parallel[i].Cfg.Key() || serial[i].Value != parallel[i].Value {
			t.Fatalf("parallel collector reordered results at %d", i)
		}
	}
}

func TestComponentPoolRestrictsSampling(t *testing.T) {
	p := synthProblem(27, 200)
	// Restrict each component to 10 candidate configurations.
	rng := rand.New(rand.NewPCG(27, 1))
	p.ComponentPool = make([][]cfgspace.Config, len(p.Components))
	allowed := make([]map[string]bool, len(p.Components))
	for j, c := range p.Components {
		p.ComponentPool[j] = c.Space.SampleN(rng, 10)
		allowed[j] = map[string]bool{}
		for _, cfg := range p.ComponentPool[j] {
			allowed[j][cfg.Key()] = true
		}
	}
	res, err := NewCEAL().Tune(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	for j, cs := range res.ComponentSamples {
		for _, s := range cs {
			if !allowed[j][s.Cfg.Key()] {
				t.Fatalf("component %d measured %v outside its candidate pool", j, s.Cfg)
			}
		}
	}
}

func TestSurrogateLogTargetHandlesScale(t *testing.T) {
	// Targets spanning orders of magnitude: the log-space surrogate must
	// rank a cheap config below an expensive one.
	p := synthProblem(29, 100)
	s := newSurrogate(p)
	samples := []Sample{
		{Cfg: cfgspace.Config{50, 1, 50, 1}, Value: 5},
		{Cfg: cfgspace.Config{2, 10, 2, 10}, Value: 5000},
		{Cfg: cfgspace.Config{45, 2, 45, 2}, Value: 6},
		{Cfg: cfgspace.Config{3, 9, 3, 9}, Value: 4000},
	}
	if err := s.Train(&State{Problem: p, Prior: samples}); err != nil {
		t.Fatal(err)
	}
	if s.Predict(cfgspace.Config{48, 1, 48, 1}) >= s.Predict(cfgspace.Config{2, 10, 2, 10}) {
		t.Fatal("surrogate failed to separate cheap from expensive region")
	}
}

func TestProblemValidate(t *testing.T) {
	p := synthProblem(19, 10)
	p.Pool = nil
	if _, err := (RS{}).Tune(p, 5); err == nil {
		t.Fatal("empty pool accepted")
	}
	p2 := synthProblem(19, 10)
	p2.Components = p2.Components[:1]
	if _, err := (RS{}).Tune(p2, 5); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}
