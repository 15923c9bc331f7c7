package tuner

import (
	"math"
	"math/rand/v2"

	"ceal/internal/metrics"
	"ceal/internal/tuner/events"
)

// CEALOptions are Algorithm 1's hyper-parameters, expressed as budget
// fractions (§6, §7.6).
type CEALOptions struct {
	// Iterations is I, the number of refinement iterations.
	Iterations int
	// RandomFrac is m0/m, the cap on random workflow samples.
	RandomFrac float64
	// ComponentFrac is mR/m, the budget share spent measuring components
	// standalone. Ignored (treated as 0) when the problem has full
	// historical component measurements.
	ComponentFrac float64
	// DisableSwitch keeps evaluating configurations with the low-fidelity
	// model for the whole run (ablation of the model-switch detector).
	DisableSwitch bool
	// DisableBiasEscape turns off the dynamic random-sample top-up of
	// Alg. 1 lines 20–22 (ablation).
	DisableBiasEscape bool
}

// DefaultCEALOptions returns settings tuned on this repository's simulated
// substrate, following the paper's guidance (§6: m0 ≈ 15% of m without
// histories, ≈ 35% with; mR between 25% and 75% of m) and its practice of
// selecting the best hyper-parameters per algorithm (§7.3).
func DefaultCEALOptions(hasHistory bool) CEALOptions {
	if hasHistory {
		return CEALOptions{Iterations: 3, RandomFrac: 0.35, ComponentFrac: 0}
	}
	return CEALOptions{Iterations: 8, RandomFrac: 0.15, ComponentFrac: 0.3}
}

// CEAL is Component-based Ensemble Active Learning (Algorithm 1): Phase 1
// builds per-component models and combines them into the white-box
// low-fidelity model; Phase 2 trains the boosted-tree high-fidelity model
// on configurations ranked mostly by whichever of the two models the
// switch detector currently trusts.
type CEAL struct {
	Opts *CEALOptions // nil = defaults chosen per problem
}

// NewCEAL returns CEAL with per-problem default options.
func NewCEAL() *CEAL { return &CEAL{} }

// Name returns the algorithm name.
func (*CEAL) Name() string { return "CEAL" }

// Tune implements Algorithm 1. The budget m covers workflow runs and (when
// no history exists) the mR standalone component runs, which the paper
// charges as mR workflow-run equivalents (§6).
//
// The Loop iteration index is offset by one from Algorithm 1's: the
// pseudocode pre-selects the first batch before the loop and measures it at
// i=1, which maps to the engine's seed batch (Iter 0), so engine iteration
// it corresponds to Algorithm 1's i = it+1 and the engine runs I-1
// refinement iterations.
func (c *CEAL) Tune(p *Problem, budget int) (*Result, error) {
	// Warm component coverage counts like full histories: Phase-1 models
	// train on prior standalone runs, so no fresh mR is charged.
	useHistory := p.hasHistory() || p.warmCoversComponents()
	opts := DefaultCEALOptions(useHistory)
	if c.Opts != nil {
		opts = *c.Opts
	}
	if opts.Iterations < 1 {
		opts.Iterations = 1
	}
	s := &cealStrategy{opts: opts, useHistory: useHistory}
	loop := &Loop{Algorithm: "CEAL", Salt: saltCEAL, Iterations: opts.Iterations - 1, Strategy: s}
	return loop.Run(p, budget)
}

// cealStrategy carries Algorithm 1's Phase-2 state across loop callbacks.
// The embedded surrogate (model) is the high-fidelity model M_H: refit on
// everything measured after each batch (line 25) and the source of the
// final pool scores.
type cealStrategy struct {
	surrogateBacked
	opts       CEALOptions
	useHistory bool

	cm *componentModels // Phase 1: M_L and its cached pool scores

	// Budget split (Alg. 1 line 8): m0 is the random reserve, m0used how
	// much of it is spent, mB the per-iteration top-pick batch size.
	m0     int
	m0used int
	mB     int

	// warmed records that M_H was pre-trained on prior-run samples, which
	// makes it a usable seed-batch ranker before any fresh measurement.
	warmed bool

	usingHigh bool
	// holdFrom is where the holdout starts in st.Samples and st.Indices:
	// it holds the samples measured since the last switch check, or since
	// M_H was first trained. The switch detector compares the two models
	// on them, out-of-sample (otherwise M_H, evaluated on its own training
	// data, would win trivially).
	holdFrom int
	// pendingExtra queues the bias-escape random top-up (Alg. 1 lines
	// 20–22) for the next batch, ahead of the model's top picks.
	pendingExtra []int
}

const minHoldout = 3

func (s *cealStrategy) addWork(w *events.Work) {
	s.surrogateBacked.addWork(w)
	s.cm.addWork(w)
}

func (s *cealStrategy) Bootstrap(st *State) ([][]Sample, error) {
	budget := st.Budget
	// Phase 1: component models -> low-fidelity model M_L (lines 1–6);
	// st.Budget becomes the workflow runs available.
	cm, err := bootstrapComponents(st, s.opts.ComponentFrac, s.useHistory)
	if err != nil {
		return nil, err
	}
	s.m0 = initialBatchSize(s.opts.RandomFrac, budget)
	if s.m0 > st.Budget {
		s.m0 = st.Budget
	}
	s.cm = cm
	s.model = newSurrogate(st.Problem) // M_H, line 12
	return cm.newSamples, nil
}

func (s *cealStrategy) SeedBatch(st *State) ([]int, error) {
	s.m0used = s.m0 / 2
	if s.m0used < 1 {
		s.m0used = 1
	}
	pending := st.Tracker.takeRandom(s.m0used, st.Rng) // line 7

	s.mB = (st.Budget - s.m0) / s.opts.Iterations // line 8
	if s.mB < 1 {
		s.mB = 1
	}
	room := capBatch(s.mB, st.Budget, len(pending), 0)
	// Warm start: the seed batch's top picks already come from the
	// prior-trained high-fidelity surrogate instead of the white-box
	// model — this is where transfer learning pays for itself, by
	// spending the very first measurements near prior optima. The
	// switch detector still arbitrates between the models afterwards.
	ranker, err := s.ranker(st, s.warmed)
	if err != nil {
		return nil, err
	}
	return append(pending, st.Tracker.takeTop(room, ranker)...), nil // lines 9–10
}

// ranker scores pool candidates with M_H (high) or with M_L's cached pool
// scores.
func (s *cealStrategy) ranker(st *State, high bool) (poolScorer, error) {
	if high {
		return s.model.poolScorer()
	}
	return s.cm.scorer(st.Problem)
}

// WarmStart pre-trains the high-fidelity surrogate on prior-run workflow
// samples (st.Prior), set up by the Loop before seeding.
func (s *cealStrategy) WarmStart(st *State) error {
	if err := s.model.Train(st); err != nil {
		return err
	}
	s.warmed = true
	return nil
}

// AfterMeasure is Algorithm 1's lines 16–24, run right after each batch is
// measured: the out-of-sample switch check and the bias-escape top-up. The
// current pseudocode iteration is i = st.Iter + 1. Both models score the
// holdout from the pool codes the run already holds: M_H through its pool
// scorer with no cut-off, M_L on the holdout's rows alone.
func (s *cealStrategy) AfterMeasure(st *State) error {
	if s.usingHigh {
		return nil
	}
	if !s.model.Trained() {
		s.holdFrom = len(st.Samples)
		return nil
	}
	i := st.Iter + 1
	I := s.opts.Iterations

	holdout := st.Indices[s.holdFrom:]
	if len(holdout) < minHoldout {
		return nil
	}
	truth := make([]float64, len(holdout))
	for k, smp := range st.Samples[s.holdFrom:] {
		truth[k] = smp.Value
	}
	high, err := s.ranker(st, true)
	if err != nil {
		return err
	}
	highScores := make([]float64, len(holdout))
	high(holdout, highScores, math.Inf(1))
	lowScores, err := s.cm.scoreRows(st.Problem, holdout)
	if err != nil {
		return err
	}
	sH := metrics.RecallSum(highScores, truth) // line 18
	sL := metrics.RecallSum(lowScores, truth)  // line 19

	// Bias escape (lines 20–22): if M_H's three favourite held-out
	// configurations are not all within the better-performing half, the
	// sampling so far is suspect — spend part of the random reserve.
	if !s.opts.DisableBiasEscape && s.m0used < s.m0 && biased(highScores, truth) {
		add := (s.m0 - s.m0used) / 2
		if add > 0 && len(st.Samples)+add <= st.Budget {
			s.pendingExtra = append(s.pendingExtra, st.Tracker.takeRandom(add, st.Rng)...)
			s.m0used += add
			if st.Observing() {
				st.Emit(&events.BiasEscape{Iteration: st.Iter, Added: add})
			}
		}
	}
	switched := !s.opts.DisableSwitch && sH >= sL
	if st.Observing() {
		st.Emit(&events.SwitchDecision{Iteration: st.Iter, HighRecall: sH, LowRecall: sL, Switched: switched})
	}
	if switched { // lines 23–24
		s.usingHigh = true
		st.SwitchIter = i - 1
		if I > i {
			s.mB += (s.m0 - s.m0used) / (I - i)
		}
	}
	s.holdFrom = len(st.Samples)
	return nil
}

// SelectBatch is Algorithm 1's lines 26–27 at the end of pseudocode
// iteration i = st.Iter: rank the remaining pool with whichever model is
// trusted and top up with any queued bias-escape randoms.
func (s *cealStrategy) SelectBatch(st *State) ([]int, error) {
	want := s.mB
	if st.Iter == s.opts.Iterations-1 {
		// Final selection: flush whatever workflow budget remains
		// (integer division of mB would otherwise strand runs).
		want = st.Budget
	}
	room := capBatch(want, st.Budget, len(st.Samples), len(s.pendingExtra))
	ranker, err := s.ranker(st, s.usingHigh)
	if err != nil {
		return nil, err
	}
	pending := append(s.pendingExtra, st.Tracker.takeTop(room, ranker)...) // lines 26–27
	s.pendingExtra = nil
	return pending, nil
}

// capBatch limits a batch to the workflow-run budget still available.
func capBatch(want, budget, used, queued int) int {
	room := budget - used - queued
	if want > room {
		want = room
	}
	if want < 0 {
		want = 0
	}
	return want
}

// biased reports whether the high-fidelity model's top-3 measured
// configurations fail to all sit in the better half of the measured truth
// (Alg. 1 line 20).
func biased(highScores, truth []float64) bool {
	top3 := metrics.TopIndices(3, highScores)
	half := metrics.TopIndices((len(truth)+1)/2, truth)
	inHalf := make(map[int]bool, len(half))
	for _, i := range half {
		inHalf[i] = true
	}
	for _, i := range top3 {
		if !inHalf[i] {
			return true
		}
	}
	return false
}

// LowFidelityScores exposes the Phase-1 white-box model's scores over
// p.Pool without running Phase 2 — used by the Fig. 4 experiment and the
// combiner ablation.
func LowFidelityScores(p *Problem, mR int) ([]float64, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, saltCEAL))
	cm, err := trainComponentModels(p, mR, rng)
	if err != nil {
		return nil, err
	}
	return cm.poolScores(p)
}
