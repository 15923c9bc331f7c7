package tuner

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/score"
	"ceal/internal/workflow"
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
// Those models split so little that the pass numbers few cells, so its
// bytes are the per-row slices alone; HS-100k is HS's own 100k pool, whose
// heat part numbers about 40k cells (28k distinct), so its B/op shows the
// cell pass's own bytes. The pool codes are the surrogate's, built once a
// run, so they are built before the timer starts. Each iteration scores
// the pool once on a fresh LowFidelity over the fitted parts, as a run's
// componentModels does, so B/op is the one pass a run makes, bucket
// tables included.
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
	run := func(name string, p *Problem, cm *componentModels, q *score.Codes, workers int) {
		b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
			eng, spans := score.New(workers), p.spans()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lf := &acm.LowFidelity{Combine: cm.lowFi.Combine, Parts: cm.lowFi.Parts}
				lf.ScoreCodes(eng, q, nil, spans, p.Pool)
			}
		})
	}
	for _, workers := range []int{1, 2} {
		run("100k", p, cm, q, workers)
	}
	hs := benchProblem(workflow.HS(cluster.Default()), workflow.CompTime, 100_000)
	hsModels, err := trainComponentModels(hs, 15, newTestRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	hsCodes, err := hs.poolCodes(hs.Pool)
	if err != nil {
		b.Fatal(err)
	}
	run("HS-100k", hs, hsModels, hsCodes, 2)
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
