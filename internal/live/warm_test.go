package live

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// appendWarm is WarmFromHistory assembled the plain way, every slice grown
// by append: the oracle the sized assembly must equal.
func appendWarm(db histdb.Store, spec histdb.Spec) *tuner.WarmStart {
	n := spec.Normalize()
	b, err := workflow.ByName(cluster.Default(), n.Benchmark)
	if err != nil {
		return nil
	}
	w := &tuner.WarmStart{}
	for _, rec := range db.BySpecFamily(n.FamilyKey()) {
		if rec.Result != nil {
			w.Samples = append(w.Samples, rec.Result.Samples...)
		}
	}
	w.ComponentSamples = make([][]tuner.Sample, len(b.Components))
	for j, cs := range b.Components {
		if cs.Space == nil {
			continue
		}
		for _, rec := range db.ByComponent(cs.Name) {
			d := rec.Spec.Normalize()
			if rec.Result == nil || d.Objective != n.Objective || d.Mode != n.Mode {
				continue
			}
			if idx := slices.Index(rec.Components, cs.Name); idx >= 0 && idx < len(rec.Result.ComponentSamples) {
				w.ComponentSamples[j] = append(w.ComponentSamples[j], rec.Result.ComponentSamples[idx]...)
			}
		}
	}
	if w.Empty() {
		return nil
	}
	return w
}

// componentNames maps each paper benchmark to its components in problem
// order.
func componentNames() map[string][]string {
	out := map[string][]string{}
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		for _, cs := range b.Components {
			out[b.Name] = append(out[b.Name], cs.Name)
		}
	}
	return out
}

// samples draws k samples of the given width; values carry tag so a
// misplaced sample shows which donor it came from.
func samples(rng *rand.Rand, k, dims int, tag float64) []tuner.Sample {
	out := make([]tuner.Sample, k)
	for i := range out {
		cfg := make(cfgspace.Config, dims)
		for d := range cfg {
			cfg[d] = 1 + rng.IntN(600)
		}
		out[i] = tuner.Sample{Cfg: cfg, Value: tag + rng.Float64()}
	}
	return out
}

// mixedHistory seeds a store with n records across benchmarks, algorithms,
// objectives and modes, among them every shape WarmFromHistory must skip:
// unfinished and failed runs, done runs without a Result, donors whose
// Components lacks a name or indexes past their ComponentSamples.
func mixedHistory(n int) *histdb.MemStore {
	rng := rand.New(rand.NewPCG(43, 1))
	names := componentNames()
	db := histdb.NewMemStore()
	for i := 0; i < n; i++ {
		bench := []string{"LV", "HS", "GP"}[rng.IntN(3)]
		spec := histdb.Spec{
			Benchmark: bench,
			Algorithm: []string{"ceal", "rs"}[rng.IntN(2)],
			Objective: []string{"comp", "exec"}[rng.IntN(2)],
			Pool:      []int{0, 500}[rng.IntN(2)],
			Seed:      uint64(i + 1),
		}
		if rng.IntN(4) == 0 {
			spec.Mode = histdb.ModeContinuous
		}
		comps := append([]string(nil), names[bench]...)
		rec := &histdb.RunRecord{
			ID:         fmt.Sprintf("run-%06d", i+1),
			Spec:       spec,
			SpecKey:    spec.Key(),
			State:      histdb.StateDone,
			Components: comps,
			Result:     &tuner.Result{Samples: samples(rng, rng.IntN(6), 4, float64(i))},
		}
		for range comps {
			rec.Result.ComponentSamples = append(rec.Result.ComponentSamples, samples(rng, rng.IntN(4), 3, float64(i)))
		}
		switch rng.IntN(8) {
		case 0:
			rec.State = []histdb.RunState{histdb.StateFailed, histdb.StateCancelled, histdb.StateRunning}[rng.IntN(3)]
		case 1:
			rec.Result = nil
		case 2:
			rec.Components = comps[1:] // lacks its first component
		case 3:
			rec.Result.ComponentSamples = rec.Result.ComponentSamples[:1] // later indexes past it
		case 4:
			rec.Result.Samples = []tuner.Sample{} // empty, not nil
		}
		if err := db.Save(rec); err != nil {
			panic(err)
		}
	}
	return db
}

// TestWarmFromHistoryMatchesAppendOracle: for every spec shape, the sized
// assembly equals the append-grown oracle sample for sample, in order.
func TestWarmFromHistoryMatchesAppendOracle(t *testing.T) {
	db := mixedHistory(400)
	warm := 0
	for _, bench := range []string{"LV", "hs", "GP", "XX"} {
		for _, alg := range []string{"ceal", "rs"} {
			for _, obj := range []string{"comp", "exec", "energy"} {
				for _, pool := range []int{0, 500} {
					for _, mode := range []string{"", histdb.ModeContinuous} {
						spec := histdb.Spec{Benchmark: bench, Algorithm: alg, Objective: obj, Pool: pool, Mode: mode, WarmStart: true}
						got, want := WarmFromHistory(db, spec), appendWarm(db, spec)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%+v: sized assembly differs from the append oracle", spec)
						}
						if got != nil {
							warm++
						}
					}
				}
			}
		}
	}
	if warm == 0 {
		t.Fatal("no spec found any history: the comparison shows nothing")
	}
	if w := WarmFromHistory(histdb.NewMemStore(), histdb.Spec{Benchmark: "LV"}); w != nil {
		t.Fatalf("empty history gave %+v, want nil", w)
	}
}

// TestWarmFromHistorySkipsOtherModes: a continuous session's component
// samples were measured under drifting load, so they never seed a tune
// run's Phase 1 — nor a tune run's a session's.
func TestWarmFromHistorySkipsOtherModes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	db := histdb.NewMemStore()
	tune := histdb.Spec{Benchmark: "LV", Seed: 1}
	cont := histdb.Spec{Benchmark: "LV", Seed: 2, Mode: histdb.ModeContinuous}
	donors := map[string]*histdb.RunRecord{}
	for i, spec := range []histdb.Spec{cont, tune} {
		rec := &histdb.RunRecord{
			ID:         fmt.Sprintf("run-%06d", i+1),
			Spec:       spec,
			SpecKey:    spec.Key(),
			State:      histdb.StateDone,
			Components: []string{"lammps", "voro"},
			Result: &tuner.Result{
				Samples:          samples(rng, 3, 6, float64(i)),
				ComponentSamples: [][]tuner.Sample{samples(rng, 2, 3, float64(i)), samples(rng, 2, 3, float64(i))},
			},
		}
		if err := db.Save(rec); err != nil {
			t.Fatal(err)
		}
		donors[spec.Normalize().Mode] = rec
	}
	for _, spec := range []histdb.Spec{tune, cont} {
		mode := spec.Normalize().Mode
		w := WarmFromHistory(db, spec)
		if w == nil {
			t.Fatalf("%s: no warm start", mode)
		}
		if want := donors[mode].Result.ComponentSamples; !reflect.DeepEqual(w.ComponentSamples, want) {
			t.Errorf("%s run: component samples %v, want only the %s donor's %v", mode, w.ComponentSamples, mode, want)
		}
		if want := donors[mode].Result.Samples; !reflect.DeepEqual(w.Samples, want) {
			t.Errorf("%s run: workflow samples %v, want only the %s donor's %v", mode, w.Samples, mode, want)
		}
	}
}

// familyHistory is n done LV runs of one family, each with 35 workflow
// samples and 15 per component: the shape ceal-tune -history writes.
func familyHistory(n int) *histdb.MemStore {
	rng := rand.New(rand.NewPCG(1, 2))
	db := histdb.NewMemStore()
	for i := 0; i < n; i++ {
		spec := histdb.Spec{Benchmark: "LV", Seed: uint64(i + 1)}
		rec := &histdb.RunRecord{
			ID:         fmt.Sprintf("run-%06d", i+1),
			Spec:       spec,
			SpecKey:    spec.Key(),
			State:      histdb.StateDone,
			Components: []string{"lammps", "voro"},
			Result: &tuner.Result{
				Samples:          samples(rng, 35, 6, 0),
				ComponentSamples: [][]tuner.Sample{samples(rng, 15, 3, 0), samples(rng, 15, 3, 0)},
			},
		}
		if err := db.Save(rec); err != nil {
			panic(err)
		}
	}
	return db
}

// BenchmarkWarmFromHistory prices warm admission on a 1000-run history
// (what the service holds its manager lock for): three queries and the
// assembly, the ledger's histdb.warm_assemble.ms.
func BenchmarkWarmFromHistory(b *testing.B) {
	db := familyHistory(1000)
	spec := histdb.Spec{Benchmark: "LV", WarmStart: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if WarmFromHistory(db, spec) == nil {
			b.Fatal("no warm start")
		}
	}
}
