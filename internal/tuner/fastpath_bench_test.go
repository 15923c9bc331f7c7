package tuner

import (
	"fmt"
	"testing"
)

// benchPoolScorer is a cheap deterministic per-index scorer: selection
// benchmarks measure the selector, not the model.
func benchPoolScorer(idxs []int, out []float64, _ float64) {
	for j, idx := range idxs {
		out[j] = float64(idx % 997)
	}
}

// BenchmarkSelectTop prices one per-iteration candidate selection over a
// 100k-config pool: the fused chunk-heap selector against the pre-fusion
// reference (materialize every score, full sort, descending swap-remove).
// Both produce identical batches and identical surviving pools — the
// reference is the same oracle TestTakeTopMatchesReference pins.
func BenchmarkSelectTop(b *testing.B) {
	const poolN, n = 100_000, 16
	for _, workers := range []int{1, 4} {
		p := synthProblem(1, poolN)
		p.Workers = workers
		run := func(name string, take func(t *poolTracker)) {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				tr := newPoolTracker(p, newRunArena())
				backup := append([]int(nil), tr.remaining...)
				tr.takeTop(n, benchPoolScorer) // warm the arena
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.remaining = tr.remaining[:len(backup)]
					copy(tr.remaining, backup)
					take(tr)
				}
			})
		}
		run("fused", func(tr *poolTracker) { tr.takeTop(n, benchPoolScorer) })
		run("reference", func(tr *poolTracker) { takeTopReference(tr, n, benchPoolScorer) })
	}
}

// BenchmarkSteadyStateIteration prices one full model-guided loop
// iteration on a 100k-config pool — surrogate refit, full-pool
// prediction, top-k selection — in the two regimes the tentpole
// separates: "warm" reuses the per-run state the loop now carries (the
// booster's kernel and round buffers, the arena's prediction and
// selection buffers), "cold" rebuilds everything per iteration, which is
// the pre-optimization per-iteration shape.
func BenchmarkSteadyStateIteration(b *testing.B) {
	const poolN, nSamples, batch = 100_000, 48, 16
	p := synthProblem(1, poolN)
	p.Workers = 1
	samples := make([]Sample, nSamples)
	for i := range samples {
		v, err := p.Eval.MeasureWorkflow(p.Pool[i])
		if err != nil {
			b.Fatal(err)
		}
		samples[i] = Sample{Cfg: p.Pool[i], Value: v}
	}

	b.Run("warm", func(b *testing.B) {
		s := newSurrogate(p)
		arena := newRunArena()
		tr := newPoolTracker(p, arena)
		backup := append([]int(nil), tr.remaining...)
		if err := s.Train(samples); err != nil {
			b.Fatal(err)
		}
		s.PredictPoolInto(p.Pool, arena.poolScores(poolN))
		tr.takeTop(batch, s.poolScorer(p))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.remaining = tr.remaining[:len(backup)]
			copy(tr.remaining, backup)
			if err := s.Train(samples); err != nil {
				b.Fatal(err)
			}
			s.PredictPoolInto(p.Pool, arena.poolScores(poolN))
			tr.takeTop(batch, s.poolScorer(p))
		}
	})

	b.Run("cold", func(b *testing.B) {
		// Fresh surrogate, tracker and buffers every iteration: every fit
		// re-sorts the kernel, every prediction allocates a pool-sized
		// slice, every selection materializes and sorts the full pool.
		// (The problem-level featurized-pool cache predates this PR and
		// stays shared, so the delta below is the per-run reuse alone.)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newSurrogate(p)
			tr := newPoolTracker(p, newRunArena())
			if err := s.Train(samples); err != nil {
				b.Fatal(err)
			}
			s.PredictPoolInto(p.Pool, make([]float64, poolN))
			takeTopReference(tr, batch, s.poolScorer(p))
		}
	})
}

// BenchmarkTuneLoopEndToEnd is the headline number: a complete
// model-guided tuning run (GEIST: seed batch, iterative refit + fused
// top-k selection, final full-pool scoring) over a 100k-config pool with
// a pre-warmed measurement cache, so the measured cost is the tuner loop
// itself rather than the simulator.
func BenchmarkTuneLoopEndToEnd(b *testing.B) {
	const poolN, budget = 100_000, 24
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("geist/workers=%d", workers), func(b *testing.B) {
			p := synthProblem(1, poolN)
			p.Workers = workers
			if _, err := NewGEIST().Tune(p, budget); err != nil { // warm the collector cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewGEIST().Tune(p, budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
