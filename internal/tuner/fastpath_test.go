package tuner

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
)

// takeTopReference is the pre-fusion selector kept verbatim as the test
// oracle: materialize every remaining score, full-sort the positions under
// (score, position), take the prefix, and remove the taken positions by
// descending-position swap-remove. The fused takeTop must reproduce both
// its returned batch and the exact post-removal remaining array.
func takeTopReference(t *poolTracker, n int, score poolScorer) []int {
	m := len(t.remaining)
	if n > m {
		n = m
	}
	if n <= 0 {
		return nil
	}
	scores := make([]float64, m)
	score(t.remaining, scores, math.Inf(1))
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] < scores[order[b]]
		}
		return order[a] < order[b]
	})
	out := make([]int, n)
	taken := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = t.remaining[order[i]]
		taken[i] = order[i]
	}
	sort.Sort(sort.Reverse(sort.IntSlice(taken)))
	for _, pos := range taken {
		t.remaining[pos] = t.remaining[len(t.remaining)-1]
		t.remaining = t.remaining[:len(t.remaining)-1]
	}
	return out
}

// TestTakeTopMatchesReference pins the fused chunk-heap selector to the
// reference full-sort selector: same returned pool indices and the same
// remaining array element for element (so follow-on takeRandom draws are
// unchanged), across worker counts, request sizes, tie-heavy scores, and
// repeated drains of one tracker.
func TestTakeTopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 71))
	for _, workers := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 25; trial++ {
			poolN := 40 + rng.IntN(400)
			p := synthProblem(uint64(trial), poolN)
			p.Workers = workers
			// Deterministic per-pool-index scores with heavy ties, exercising
			// the position tie-break throughout.
			mod := 2 + trial%9
			scorer := func(idxs []int, out []float64, _ float64) {
				for j, idx := range idxs {
					out[j] = float64(idx % mod)
				}
			}
			fused := newPoolTracker(p)
			ref := newPoolTracker(p)
			for len(fused.remaining) > 0 {
				n := 1 + rng.IntN(poolN/3+1)
				got := fused.takeTop(n, scorer)
				want := takeTopReference(ref, n, scorer)
				if len(got) != len(want) {
					t.Fatalf("workers=%d trial=%d: took %d configs, reference %d", workers, trial, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d trial=%d: batch[%d] = %v, reference %v", workers, trial, i, got[i], want[i])
					}
				}
				if len(fused.remaining) != len(ref.remaining) {
					t.Fatalf("workers=%d trial=%d: %d remaining, reference %d", workers, trial, len(fused.remaining), len(ref.remaining))
				}
				for i := range ref.remaining {
					if fused.remaining[i] != ref.remaining[i] {
						t.Fatalf("workers=%d trial=%d: remaining[%d] = %d, reference %d (removal order diverged)",
							workers, trial, i, fused.remaining[i], ref.remaining[i])
					}
				}
			}
		}
	}
	// Pools of paper scale and beyond, where a chunk streams several
	// blocks: batches above selectBlock (whose first block is capped at
	// selectBlock), batches of everything that remains, and chunks smaller
	// than their first block.
	tied := func(idxs []int, out []float64, _ float64) {
		for j, idx := range idxs {
			out[j] = float64(idx % 7)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, poolN := range []int{300, 1500, 2000} {
			p := synthProblem(uint64(poolN), poolN)
			p.Workers = workers
			for _, n := range []int{1, 16, 100, 400, 600, poolN} {
				drainBothWays(t, fmt.Sprintf("workers=%d pool=%d n=%d", workers, poolN, n), p, n, tied)
			}
		}
	}
}

// TestSelectionBoundedAfterFirstBatch counts work, not time: on a 2000-row
// pool, no chunk of the fused selector hands the scorer more than n
// candidates without a cut-off (worst = +Inf). Its heap is full after its
// first n candidates, and every later block is scored against the heap's
// worst. A batch above selectBlock fills its heap in whole selectBlock
// blocks, so its limit is n rounded up to a multiple of selectBlock.
func TestSelectionBoundedAfterFirstBatch(t *testing.T) {
	const poolN = 2000
	for _, workers := range []int{1, 2, 4, 8} {
		p := synthProblem(31, poolN)
		p.Workers = workers
		size, chunks := p.engine().ChunkLayout(poolN)
		for _, n := range []int{1, 8, 50, selectBlock, 600} {
			limit := n
			if n > selectBlock {
				limit = (n + selectBlock - 1) / selectBlock * selectBlock
			}
			var mu sync.Mutex
			unbounded := make([]int, chunks)
			scored := 0
			scorer := func(idxs []int, out []float64, worst float64) {
				for j, idx := range idxs {
					out[j] = float64(idx % 97)
				}
				mu.Lock()
				defer mu.Unlock()
				scored += len(idxs)
				if math.IsInf(worst, 1) {
					unbounded[idxs[0]/size] += len(idxs) // a fresh tracker's positions are its indices
				}
			}
			newPoolTracker(p).takeTop(n, scorer)
			if scored != poolN {
				t.Fatalf("workers=%d n=%d: scored %d candidates of %d", workers, n, scored, poolN)
			}
			for ci, u := range unbounded {
				if u > limit {
					t.Errorf("workers=%d n=%d: chunk %d scored %d candidates with no cut-off, want <= %d", workers, n, ci, u, limit)
				}
			}
		}
	}
}

// TestFusedSelectionIdenticalAcrossWorkerCounts extends the determinism
// oracle to every worker count the fused selector chunks differently at
// the test pool size: all algorithms, workers 1/2/4/8, byte-identical
// Results end to end.
func TestFusedSelectionIdenticalAcrossWorkerCounts(t *testing.T) {
	const (
		seed   = 43
		pool   = 260
		budget = 20
	)
	for _, alg := range allAlgorithms() {
		run := func(workers int) *Result {
			p := synthProblem(seed, pool)
			p.Workers = workers
			res, err := alg.Tune(p, budget)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg.Name(), workers, err)
			}
			return res
		}
		ref := run(1)
		for _, w := range []int{2, 4, 8} {
			got := run(w)
			if got.Best.Key() != ref.Best.Key() {
				t.Errorf("%s workers=%d: Best %v, serial Best %v", alg.Name(), w, got.Best, ref.Best)
			}
			for i := range ref.PoolScores {
				if math.Float64bits(got.PoolScores[i]) != math.Float64bits(ref.PoolScores[i]) {
					t.Errorf("%s workers=%d: PoolScores[%d] = %v, serial %v",
						alg.Name(), w, i, got.PoolScores[i], ref.PoolScores[i])
					break
				}
			}
			if len(got.Samples) != len(ref.Samples) {
				t.Fatalf("%s workers=%d: measured %d samples, serial %d",
					alg.Name(), w, len(got.Samples), len(ref.Samples))
			}
			for i := range ref.Samples {
				if got.Samples[i].Cfg.Key() != ref.Samples[i].Cfg.Key() ||
					math.Float64bits(got.Samples[i].Value) != math.Float64bits(ref.Samples[i].Value) {
					t.Errorf("%s workers=%d: sample %d diverged from serial", alg.Name(), w, i)
					break
				}
			}
		}
	}
}

// drainBothWays empties two trackers over p in steps of n — the fused
// selector under test against takeTopReference — and fails on the first
// difference in a returned batch or in the surviving index array.
func drainBothWays(t *testing.T, label string, p *Problem, n int, scorer poolScorer) {
	t.Helper()
	fused := newPoolTracker(p)
	ref := newPoolTracker(p)
	for step := 0; len(ref.remaining) > 0 && step < 6; step++ {
		got := fused.takeTop(n, scorer)
		want := takeTopReference(ref, n, scorer)
		if len(got) != len(want) {
			t.Fatalf("%s step %d: took %d configs, reference %d", label, step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s step %d: batch[%d] = %v, reference %v", label, step, i, got[i], want[i])
			}
		}
		for i := range ref.remaining {
			if fused.remaining[i] != ref.remaining[i] {
				t.Fatalf("%s step %d: remaining[%d] = %d, reference %d", label, step, i, fused.remaining[i], ref.remaining[i])
			}
		}
	}
}

// TestBoundedTakeTopMatchesReference is the early stop's end-to-end
// contract: selection through the surrogate's bounded scorer — which
// abandons candidates against the heap's cut-off and reports them as +Inf
// — returns the same batches and leaves the same pool as the reference
// selector, which scores every candidate in full. Ensembles run from the
// default shape to the adversarial: leaf-only (every score tied, so only
// the position tie-break orders candidates), depth 1 and 8, and targets of
// both signs at 1e150, whose predictions exponentiate to 0 and +Inf.
// Batches run from one configuration to above selectBlock and to the whole
// pool, and at 8 workers a chunk is smaller than a 600-batch's first block.
func TestBoundedTakeTopMatchesReference(t *testing.T) {
	const poolN = 1500
	p0 := synthProblem(23, poolN)
	q, err := p0.poolCodes(p0.Pool)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int32, 80)
	logY := make([]float64, len(rows))
	for i := range rows {
		rows[i] = int32(i * 7)
		v, err := p0.Eval.MeasureWorkflow(p0.Pool[i*7])
		if err != nil {
			t.Fatal(err)
		}
		logY[i] = logTarget(v)
	}
	cases := []struct {
		name          string
		depth, rounds int
		target        func(i int) float64
	}{
		{"leaf-only", 4, 20, func(int) float64 { return 1.25 }},
		{"depth 1", 1, 60, func(i int) float64 { return logY[i] }},
		{"depth 4", 4, 100, func(i int) float64 { return logY[i] }},
		{"depth 8", 8, 30, func(i int) float64 { return logY[i] }},
		{"huge mixed-sign leaves", 4, 30, func(i int) float64 { return math.Copysign(1e150, logY[i]-logY[0]) * (1 + logY[i]) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			y := make([]float64, len(rows))
			for i := range y {
				y[i] = tc.target(i)
			}
			params := xgb.DefaultParams()
			params.MaxDepth, params.Rounds = tc.depth, tc.rounds
			model, err := new(xgb.Trainer).Fit(q, rows, y, params)
			if err != nil {
				t.Fatal(err)
			}
			abandoned := 0
			for _, workers := range []int{1, 2, 4, 8} {
				p := synthProblem(23, poolN)
				p.Workers = workers
				s := newSurrogate(p)
				s.model = model
				inner, err := s.poolScorer()
				if err != nil {
					t.Fatal(err)
				}
				counting := func(idxs []int, out []float64, worst float64) {
					inner(idxs, out, worst)
					if workers == 1 && !math.IsInf(worst, 1) {
						for _, v := range out {
							if math.IsInf(v, 1) {
								abandoned++
							}
						}
					}
				}
				for _, n := range []int{1, 3, 8, 50, 600, poolN} {
					drainBothWays(t, fmt.Sprintf("workers=%d n=%d", workers, n), p, n, counting)
				}
			}
			if tc.name == "depth 4" && abandoned == 0 {
				t.Error("the cut-off never abandoned a candidate of the default-shaped ensemble")
			}
		})
	}
}

// TestWideColumnRefused: a pool whose first parameter is declared, and
// taken, with more than score.MaxCodes values has a column too wide to
// code, in the workflow columns and in sim's own. Every way a run codes it
// is refused with score.ErrWideColumn: AL's surrogate ranking, ALpH's
// component fits, CEAL's M_L pass, the Phase-1 model's scores and the
// surrogate's fit.
func TestWideColumnRefused(t *testing.T) {
	wideProblem := func() *Problem {
		p := synthProblem(5, score.MaxCodes+200)
		p.Workers = 2
		sim := p.Components[0].Space
		sim.Params[0].Max = 2 + len(p.Pool)
		p.Space = cfgspace.Concat(nil,
			cfgspace.NamedSpace{Name: "sim", Space: sim},
			cfgspace.NamedSpace{Name: "viz", Space: p.Components[1].Space})
		for i := range p.Pool {
			p.Pool[i][0] = 2 + i
		}
		return p
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, score.ErrWideColumn) {
			t.Errorf("%s over a wide pool: err = %v, want score.ErrWideColumn", what, err)
		}
	}
	for _, alg := range []Algorithm{NewAL(), NewALpH(), NewCEAL()} {
		_, err := alg.Tune(wideProblem(), 20)
		refused(alg.Name(), err)
	}
	p := wideProblem()
	_, err := LowFidelityScores(p, 10)
	refused("LowFidelityScores", err)
	samples := make([]Sample, 40)
	for i := range samples {
		v, err := p.Eval.MeasureWorkflow(p.Pool[i])
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = Sample{Cfg: p.Pool[i], Value: v}
	}
	refused("Train", newSurrogate(p).Train(poolState(p, samples)))
}

// TestLowFidelityPoolScoresMatchScore: the cached M_L pool vector every
// M_L-backed ranking reads equals, row for row, the combiner folding each
// component model's prediction on its own sub-configuration, with an
// unconfigurable component whose empty sub-configuration sits at the very
// end of each configuration. The pass reads the pool codes the surrogate
// shares, so the pool's columns are derived once a run.
func TestLowFidelityPoolScoresMatchScore(t *testing.T) {
	p := synthProblem(9, 500)
	p.Components = append(p.Components, ComponentInfo{Name: "fixed"})
	var calls atomic.Int64
	cols := p.Space.Columns()
	p.Space.Coder = cfgspace.NewCoder(cols.Cols, func(cfg cfgspace.Config, dst []int) {
		calls.Add(1)
		cols.Ints(cfg, dst)
	})
	cm, err := trainComponentModels(p, 12, newTestRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm.poolScores(p)
	if err != nil {
		t.Fatal(err)
	}
	derived := calls.Load()
	if _, err := newSurrogate(p).codes(); err != nil {
		t.Fatal(err)
	}
	if derived != int64(len(p.Pool)) || calls.Load() != derived {
		t.Fatalf("derived the columns of %d rows for the M_L pass and %d more for the surrogate's codes, want the pool, then none",
			derived, calls.Load()-derived)
	}
	vs := make([]float64, len(cm.lowFi.Parts))
	for i, cfg := range p.Pool {
		for j := range cm.lowFi.Parts {
			vs[j] = partPredict(p, cm.lowFi, j, cfg)
		}
		if want := p.Combiner.Combine(vs); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("pool[%d]: cached M_L score %v, folded predictions %v", i, got[i], want)
		}
	}
	scorer, err := cm.scorer(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	scorer([]int{4, 0, 499}, out, math.Inf(1))
	if out[0] != got[4] || out[1] != got[0] || out[2] != got[499] {
		t.Fatalf("scorer returned %v for pool indices 4, 0, 499", out)
	}
}

// partPredict is part j's prediction for cfg by the float walk over the
// component's declared features: the per-configuration oracle of M_L's
// cell pass.
func partPredict(p *Problem, lf *acm.LowFidelity, j int, cfg cfgspace.Config) float64 {
	part := &lf.Parts[j]
	switch m := part.Predictor.(type) {
	case acm.ConstPredictor:
		return float64(m)
	case componentModel:
		out := []float64{0}
		m.model.PredictBatchOnInto(nil, [][]float64{p.Components[j].Space.Features(part.Sub(cfg))}, out)
		return unlogTarget(out[0])
	}
	panic(fmt.Sprintf("part %s: predictor %T", part.Name, part.Predictor))
}
