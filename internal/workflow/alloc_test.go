//go:build !race

package workflow

import (
	"math/rand/v2"
	"testing"

	"ceal/internal/cluster"
)

// TestRunInSituAllocs guards the simulator's allocation budget: a run
// allocates its setup (engine, links, channels, one coroutine per process)
// plus one closure per armed link timer, and nothing per Sleep, Put, Get or
// wake-up. Ceilings sit ~25% above the measured counts on each benchmark's
// expert configuration (LV 125, HS 108, GP 307); one allocation per
// simulated event would put these runs at 900 to 5500.
func TestRunInSituAllocs(t *testing.T) {
	m := cluster.Default()
	for name, ceiling := range map[string]float64{"LV": 160, "HS": 135, "GP": 385} {
		b, err := ByName(m, name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.Build(b.ExpertExec)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := w.RunInSitu(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocs per RunInSitu, want <= %.0f", name, allocs, ceiling)
		}
	}
}

// TestPoolRowAllocs guards what a tuner pays per pool row: the feature
// vector is the row's one allocation (building the components to read
// their layouts made it 7 to 8), and admitting a configuration or reading
// a component's layout allocates nothing.
func TestPoolRowAllocs(t *testing.T) {
	for _, b := range Benchmarks(cluster.Default()) {
		cfg := b.ExpertExec
		for _, c := range []struct {
			what string
			want float64
			row  func()
		}{
			{"Features", 1, func() { b.Features(cfg) }},
			{"Space.IsValid", 0, func() { b.Space.IsValid(cfg) }},
			{"Layout", 0, func() {
				for j, cs := range b.Components {
					cs.Layout(b.Sub(cfg, j))
				}
			}},
		} {
			if allocs := testing.AllocsPerRun(100, c.row); allocs != c.want {
				t.Errorf("%s: %s allocates %.0f times per row, want %.0f", b.Name, c.what, allocs, c.want)
			}
		}
	}
}

// TestSampleNAllocs guards the pool sampler: each accepted configuration
// is its one allocation (the distinct-set is one table for the whole pool,
// no key per row; a Key() string and a map entry made it 4.4 to 4.9).
func TestSampleNAllocs(t *testing.T) {
	const n = 2000
	for _, b := range Benchmarks(cluster.Default()) {
		rng := rand.New(rand.NewPCG(7, 1))
		if allocs := testing.AllocsPerRun(5, func() { b.Space.SampleN(rng, n) }); allocs > n+8 {
			t.Errorf("%s: SampleN(%d) allocates %.0f times, want <= %d", b.Name, n, allocs, n+8)
		}
	}
}
