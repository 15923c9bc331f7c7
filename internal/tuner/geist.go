package tuner

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/metrics"
	"ceal/internal/score"
	"ceal/internal/tuner/events"
)

// GEIST's hyper-parameters follow Thiagarajan et al. [50] as described in
// §7.3; its batch sizes are the AL family's (seedFrac, alIterations).
const (
	geistNeighbors   = 8    // k of the parameter graph
	geistTopQuantile = 0.05 // "optimal" label threshold (paper: top 5%)
	geistExploreFrac = 0.1  // fraction of each batch chosen at random
	geistSweeps      = 20   // label-propagation sweeps
)

// GEIST is the state-of-the-art comparison algorithm (§7.3): semi-
// supervised label propagation over a parameter graph identifies unmeasured
// configurations likely to be in the top 5%, which are measured next. The
// final surrogate is the same boosted-tree model trained on all
// measurements. A GEIST value keeps the last graph it built and the pool it
// built it over, so the epochs of a session, or the replications of a
// battery, that tune over one pool build it once; it dies with the value.
type GEIST struct {
	mu    sync.Mutex
	pool  []cfgspace.Config
	graph [][]int
}

// NewGEIST returns GEIST.
func NewGEIST() *GEIST { return &GEIST{} }

// Name returns the algorithm name.
func (*GEIST) Name() string { return "GEIST" }

// Tune implements Algorithm.
func (g *GEIST) Tune(p *Problem, budget int) (*Result, error) {
	s := &geistStrategy{surrogateBacked: surrogateBacked{newSurrogate(p)}, g: g}
	loop := &Loop{Algorithm: "GEIST", Salt: saltGEIST, Iterations: alIterations, Strategy: s}
	return loop.Run(p, budget)
}

// geistStrategy tracks measurements by pool index (the graph's node id)
// rather than through the tracker: label propagation needs the index map.
// The surrogate is only trained once, on the final sample set, so Fit
// merely folds fresh measurements into the index map and the model-trained
// trace event fires from Finish.
type geistStrategy struct {
	surrogateBacked
	g          *GEIST
	graph      [][]int
	measured   map[int]float64 // pool index -> measured value
	unmeasured map[int]bool
	distances  int64 // evaluated to build the graph (none if it was built before)
}

func (s *geistStrategy) addWork(w *events.Work) {
	s.surrogateBacked.addWork(w)
	w.Distances += s.distances
}

func (s *geistStrategy) SeedBatch(st *State) ([]int, error) {
	p := st.Problem
	var err error
	if s.graph, s.distances, err = s.g.graphFor(p); err != nil {
		return nil, err
	}
	s.measured = make(map[int]float64)
	s.unmeasured = make(map[int]bool, len(p.Pool))
	for i := range p.Pool {
		s.unmeasured[i] = true
	}
	m0 := initialBatchSize(seedFrac, st.Budget)
	return s.claim(randomUnmeasured(m0, len(p.Pool), s.unmeasured, st.Rng)), nil
}

func (s *geistStrategy) SelectBatch(st *State) ([]int, error) {
	p := st.Problem
	if len(s.unmeasured) == 0 {
		return nil, nil
	}
	batchSize := evenBatchSize(st)
	if batchSize == 0 {
		return nil, nil
	}
	scores := propagateLabels(p.engine(), s.graph, s.measured, len(p.Pool), st.Rng)
	nExplore := int(float64(batchSize)*geistExploreFrac + 0.5)
	nExploit := batchSize - nExplore

	// Exploit: highest propagated probability of being in the top 5%.
	order := make([]int, 0, len(s.unmeasured))
	for i := range s.unmeasured {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	if nExploit > len(order) {
		nExploit = len(order)
	}
	// Claim the exploit picks before drawing explore indices: the random
	// draw rejects already-claimed nodes, so claim order shapes the random
	// stream and must stay exploit-first.
	batch := s.claim(order[:nExploit])
	if nExplore > 0 {
		batch = append(batch, s.claim(randomUnmeasured(nExplore, len(p.Pool), s.unmeasured, st.Rng))...)
	}
	return batch, nil
}

// claim marks unmeasured pool indices as pending-measurement and returns
// them.
func (s *geistStrategy) claim(idxs []int) []int {
	for _, i := range idxs {
		delete(s.unmeasured, i)
	}
	return idxs
}

// Fit maps the fresh measurements onto their graph nodes: they are the
// tail of st.Samples, their pool indices the tail of st.Indices.
func (s *geistStrategy) Fit(st *State, fresh []Sample) (bool, error) {
	idxs := st.Indices[len(st.Indices)-len(fresh):]
	for k, smp := range fresh {
		s.measured[idxs[k]] = smp.Value
	}
	return false, nil
}

// Finish trains the one final surrogate whether or not the pool is scored:
// its importance is part of the Result.
func (s *geistStrategy) Finish(st *State, score bool) ([]float64, error) {
	var start time.Time
	if st.Observing() {
		start = time.Now()
	}
	if err := s.model.Train(st); err != nil {
		return nil, err
	}
	if st.Observing() {
		st.Emit(&events.ModelTrained{
			Iteration:  st.Iter,
			Model:      "surrogate",
			Samples:    len(st.Samples),
			DurationNS: time.Since(start).Nanoseconds(),
			Rounds:     s.model.Rounds(),
		})
	}
	return s.surrogateBacked.Finish(st, score)
}

// randomUnmeasured draws up to n distinct unmeasured pool indices.
func randomUnmeasured(n, poolSize int, unmeasured map[int]bool, rng *rand.Rand) []int {
	if n > len(unmeasured) {
		n = len(unmeasured)
	}
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for len(out) < n {
		i := rng.IntN(poolSize)
		if unmeasured[i] && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// propagateLabels runs damped label propagation on the parameter graph:
// measured nodes are clamped to 1 if within the top quantile of measured
// values (else 0); unmeasured nodes relax toward their neighbours' average.
// Each sweep is a Jacobi update — next[] reads only the previous label[] —
// so nodes fan out across the engine with bitwise-deterministic results.
func propagateLabels(eng *score.Engine, graph [][]int, measured map[int]float64, n int, rng *rand.Rand) []float64 {
	vals := make([]float64, 0, len(measured))
	for _, v := range measured {
		vals = append(vals, v)
	}
	k := int(float64(len(vals))*geistTopQuantile + 0.5)
	if k < 1 {
		k = 1
	}
	topIdx := metrics.TopIndices(k, vals)
	threshold := vals[topIdx[len(topIdx)-1]]

	label := make([]float64, n)
	clamped := make([]bool, n)
	for i := range label {
		label[i] = 0.5
	}
	for i, v := range measured {
		clamped[i] = true
		if v <= threshold {
			label[i] = 1
		} else {
			label[i] = 0
		}
	}
	next := make([]float64, n)
	for sweep := 0; sweep < geistSweeps; sweep++ {
		lbl := label
		eng.MapChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if clamped[i] {
					next[i] = lbl[i]
					continue
				}
				sum, cnt := 0.0, 0
				for _, nb := range graph[i] {
					sum += lbl[nb]
					cnt++
				}
				if cnt == 0 {
					next[i] = lbl[i]
					continue
				}
				next[i] = 0.15*lbl[i] + 0.85*sum/float64(cnt)
			}
		})
		label, next = next, label
	}
	// Tiny deterministic jitter breaks large plateaus of equal scores.
	for i := range label {
		if !clamped[i] {
			label[i] += rng.Float64() * 1e-9
		}
	}
	return label
}
