package tuner

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/score"
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
				tr := newPoolTracker(p)
				backup := append([]int(nil), tr.remaining...)
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

// BenchmarkScoreBatch prices the M_L pool pass as a run ships it — two
// component models fitted on the paper's mR = 15 solo runs each, behind
// componentModel, so bucket tables, cell numbering and batch kernel all —
// over the rank codes of a 100k pool from component spaces as wide as LV's
// (38k sub-configurations each, about 35k of them distinct in the pool).
// The pool codes are the surrogate's, built once a run, so they are built
// before the timer starts.
func BenchmarkScoreBatch(b *testing.B) {
	p := synthProblem(1, 2)
	for j := range p.Components {
		p.Components[j].Space = &cfgspace.Space{Params: []cfgspace.Param{
			cfgspace.NewParam("procs", 2, 1085), cfgspace.NewParam("ppn", 1, 35),
		}}
	}
	p.Space = cfgspace.Concat(nil,
		cfgspace.NamedSpace{Name: "sim", Space: p.Components[0].Space},
		cfgspace.NamedSpace{Name: "viz", Space: p.Components[1].Space})
	p.Pool = p.Space.SampleN(rand.New(rand.NewPCG(1, 100)), 100_000)
	cm, err := trainComponentModels(p, 15, newTestRNG(4))
	if err != nil {
		b.Fatal(err)
	}
	q, err := p.poolCodes(p.Pool)
	if err != nil {
		b.Fatal(err)
	}
	spans := p.spans()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("100k/workers=%d", workers), func(b *testing.B) {
			eng := score.New(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cm.lowFi.ScoreCodes(eng, q, spans, p.Pool)
			}
		})
	}
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
