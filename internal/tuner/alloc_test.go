//go:build !race

package tuner

import (
	"runtime"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/tuner/events"
	"ceal/internal/workflow"
)

// TestLowFidelityPoolAllocs guards the M_L pool pass over the shared pool
// codes: bucket tables, cell numbering and one prediction a cell allocate
// per part, chunk and cell, never per pool row, so a pass over 100k rows
// allocates what one over 2k does, give or take the growth of its cell
// tables. Under BottleneckSum every row also reads each part's cores.
//
// It also bounds the bytes of a pass over HS's 100k pool, whose heat part
// numbers about 40k cells in its two chunks (28k distinct), made as a run
// makes it: once, on a fresh LowFidelity over the fitted parts, bucket
// tables included. No cell's bucket tuple is copied, the pool codes share
// their coder's lattice tables, and representatives are predicted from
// their codes, with no float rows (each model's compilation, a few KB, is
// cached after the first pass). Such a pass measures 4.52 MB; the bound is
// 5.0 MB.
func TestLowFidelityPoolAllocs(t *testing.T) {
	for _, comb := range []acm.Combiner{acm.Max, acm.BottleneckSum} {
		allocs := map[int]float64{}
		for _, n := range []int{2000, 100_000} {
			p := synthProblem(5, n)
			p.Workers = 2
			p.Combiner = comb
			for j := range p.Components {
				p.Components[j].Cores = func(sub cfgspace.Config) float64 { return float64(sub[0] * sub[1]) }
			}
			cm, err := trainComponentModels(p, 15, newTestRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			e, spans := p.engine(), p.spans()
			q, err := p.poolCodes(p.Pool)
			if err != nil {
				t.Fatal(err)
			}
			allocs[n] = testing.AllocsPerRun(5, func() { cm.lowFi.ScoreCodes(e, q, nil, spans, p.Pool) })
		}
		if small, large := allocs[2000], allocs[100_000]; large > small+16 {
			t.Errorf("%v: M_L pool pass allocates %.0f times over 2k rows and %.0f over 100k, want at most 16 more", comb, small, large)
		}
	}

	p := benchProblem(workflow.HS(cluster.Default()), workflow.CompTime, 100_000)
	cm, err := trainComponentModels(p, 15, newTestRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	e, spans := p.engine(), p.spans()
	q, err := p.poolCodes(p.Pool)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		lf := &acm.LowFidelity{Combine: cm.lowFi.Combine, Parts: cm.lowFi.Parts}
		lf.ScoreCodes(e, q, nil, spans, p.Pool)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 5_000_000 {
		t.Errorf("HS: M_L pool pass over 100k rows allocates %d bytes, want <= 5,000,000", got)
	}
}

// TestSurrogateRefitAllocs guards a warm refit of the paper's surrogate:
// after refits on 10, 20 and 30 LV samples, the refit that adds a batch
// of 10 reuses the trainer's grower, grown geometrically by then, the
// arrays of the model it replaces, and its training predictions. The
// samples are pool rows, so nothing is featurized: what is left is the
// model header and the growth of the training rows and targets, ~1,200
// bytes on amd64 (~9,500 while every refit featurized its samples), where
// a cold fit of the same 40 samples allocates ~80 KB. The bound's headroom
// is under 10%.
func TestSurrogateRefitAllocs(t *testing.T) {
	p, samples := paperSamples(t, 40)
	const runs = 8
	warm := make([]*Surrogate, runs)
	for i := range warm {
		warm[i] = newSurrogate(p)
		for _, n := range []int{10, 20, 30} {
			if err := warm[i].Train(poolState(p, samples[:n])); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := poolState(p, samples)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range warm {
		if err := s.Train(st); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 1_300 {
		t.Errorf("a warm refit on 40 samples allocates %d bytes, want <= 1,300", got)
	}
}

// TestComponentFitAllocs guards Phase 1's fits at the paper's shape: LV's
// two component models, each fitted on 15 standalone runs, as a default
// CEAL run with a 50-run budget fits them. Each fit runs on a fresh
// trainer: the component models keep their arrays for the whole run, and
// only the grower's scratch could be reused, while one shared trainer
// would serialize the fits the engine spreads. Coding the samples builds
// no table: a declared column's values are arithmetic.
// The fits measure ~112,500 bytes on amd64; the bound's headroom is under
// 10%.
func TestComponentFitAllocs(t *testing.T) {
	p := benchProblem(workflow.LV(cluster.Default()), workflow.CompTime, 2000)
	rng := newTestRNG(5)
	var comps []ComponentInfo
	var samples [][]Sample
	for j, comp := range p.Components {
		if comp.Space == nil {
			continue
		}
		cfgs, _ := sampleComponentConfigs(p, j, comp.Space, 15, rng)
		batch, err := p.Collector().MeasureComponents(p.context(), j, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		comps, samples = append(comps, comp), append(samples, batch)
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		for i, comp := range comps {
			if _, err := fitComponentModel(comp, samples[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 119_000 {
		t.Errorf("LV's Phase 1 fits allocate %d bytes, want <= 119,000", got)
	}
}

// TestLoopPhaseAllocs: with no observer, or one that takes no phase spans,
// the Loop's phase spans read no clock and allocate nothing — here the
// spans of one iteration and of a run's ends.
func TestLoopPhaseAllocs(t *testing.T) {
	p := synthProblem(3, 50)
	for _, obs := range []events.Observer{nil, events.NewRecorder()} {
		st := &State{Problem: p, obs: obs, counter: &cealStrategy{}}
		st.phases, _ = obs.(events.PhaseObserver)
		spans := func() {
			for _, name := range []string{"bootstrap", "select", "measure", "fit", "finish"} {
				st.phaseStart()
				st.phaseEnd(name)
			}
		}
		if allocs := testing.AllocsPerRun(100, spans); allocs != 0 {
			t.Errorf("observer %T: %.0f allocations for phase spans, want 0", obs, allocs)
		}
	}
}
