package tuner

// RS is the random-sampling baseline (§7.3): the whole budget is spent on
// uniformly chosen pool configurations, then one surrogate is trained on
// them.
type RS struct{}

// Name returns the algorithm name.
func (RS) Name() string { return "RS" }

// Tune implements Algorithm.
func (RS) Tune(p *Problem, budget int) (*Result, error) {
	s := &rsStrategy{surrogateBacked{newSurrogate(p)}}
	loop := &Loop{Algorithm: "RS", Salt: saltRS, Strategy: s}
	return loop.Run(p, budget)
}

// rsStrategy spends the whole budget at once and trains a single surrogate.
type rsStrategy struct {
	surrogateBacked
}

func (s *rsStrategy) SeedBatch(st *State) ([]int, error) {
	return st.Tracker.takeRandom(st.Budget, st.Rng), nil
}

// SelectBatch is never reached: RS runs no refinement iterations.
func (s *rsStrategy) SelectBatch(*State) ([]int, error) { return nil, nil }

// Distinct salts decorrelate the algorithms' random streams from one
// another while keeping each fully reproducible from Problem.Seed.
const (
	saltRS    = 0x52535253
	saltAL    = 0x414c414c
	saltGEIST = 0x47454953
	saltCEAL  = 0x4345414c
	saltALpH  = 0x414c7048
)
