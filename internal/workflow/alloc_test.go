//go:build !race

package workflow

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/score"
)

// TestRunInSituAllocs guards the simulator's allocation budget: a run
// allocates its setup (engine, links, channels, each process's state and
// step) and the heap, queue, flow and timer slots its busiest moment
// needs, and nothing per Sleep, Put, Get, wake-up or armed link timer.
// Ceilings sit ~25% above the measured counts on each benchmark's expert
// configuration (LV 46, HS 55, GP 86); one allocation per simulated event
// would put these runs at 900 to 5500.
func TestRunInSituAllocs(t *testing.T) {
	m := cluster.Default()
	for name, ceiling := range map[string]float64{"LV": 58, "HS": 69, "GP": 108} {
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

// TestRunSoloAllocs is TestRunInSituAllocs for the solo runs that train the
// component models: every benchmark component, as its benchmark's expert
// configuration builds it, measures 23 or 24 allocations, so the ceiling
// is 30.
func TestRunSoloAllocs(t *testing.T) {
	for _, b := range Benchmarks(cluster.Default()) {
		for j, c := range expertSolos(b) {
			cs := b.Components[j]
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := RunSolo(b.Machine, c, cs.InBytesPerStep); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 30 {
				t.Errorf("%s/%s: %.0f allocs per RunSolo, want <= 30", b.Name, cs.Name, allocs)
			}
		}
	}
}

// TestPoolRowAllocs guards what a tuner pays per pool row: nothing.
// Coding an LV pool from its declared columns allocates as often at 100k
// rows as at 2k (a featurized row was one allocation each), and admitting
// a configuration or reading a component's layout allocates nothing.
func TestPoolRowAllocs(t *testing.T) {
	lv := LV(cluster.Default())
	coded := map[int]float64{}
	for _, n := range []int{2000, 100_000} {
		pool := lv.Space.SampleN(rand.New(rand.NewPCG(7, 2)), n)
		eng := score.New(2)
		coded[n] = testing.AllocsPerRun(3, func() {
			var m score.Matrix
			if _, err := m.Codes(eng, pool, lv.Space.Columns()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if coded[2000] != coded[100_000] {
		t.Errorf("LV: coding a pool allocates %.0f times at 2k rows and %.0f at 100k, want the same", coded[2000], coded[100_000])
	}
	for _, b := range Benchmarks(cluster.Default()) {
		cfg := b.ExpertExec
		for _, c := range []struct {
			what string
			row  func()
		}{
			{"Space.IsValid", func() { b.Space.IsValid(cfg) }},
			{"Layout", func() {
				for j, cs := range b.Components {
					cs.Layout(b.Sub(cfg, j))
				}
			}},
		} {
			if allocs := testing.AllocsPerRun(100, c.row); allocs != 0 {
				t.Errorf("%s: %s allocates %.0f times per row, want none", b.Name, c.what, allocs)
			}
		}
	}
}

// TestSampleNAllocs guards the pool sampler: accepted configurations share
// slabs of 32, so a pool is about n/32 allocations (one each made it n,
// and a Key() string and a map entry each made it 4.4n to 4.9n), and the
// bytes it allocates, helper blocks included, stay within 10 % of what the
// pool and its distinct-set table hold. AllocsPerRun counts at one core;
// the byte count is taken at two, where the helper blocks exist.
func TestSampleNAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{2000, 100000} {
		for _, b := range Benchmarks(cluster.Default()) {
			rng := rand.New(rand.NewPCG(7, 1))
			if allocs, limit := testing.AllocsPerRun(2, func() { b.Space.SampleN(rng, n) }), n/32+16; allocs > float64(limit) {
				t.Errorf("%s: SampleN(%d) allocates %.0f times, want <= %d", b.Name, n, allocs, limit)
			}
			runtime.GOMAXPROCS(2)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.Space.SampleN(rng, n)
			runtime.ReadMemStats(&after)
			slots := 16
			for slots < 2*n {
				slots *= 2
			}
			held := n*(8*b.Space.Dim()+24) + 4*slots
			if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(held) {
				t.Errorf("%s: SampleN(%d) allocates %d bytes, want <= 110%% of the %d the pool and its table hold", b.Name, n, got, held)
			}
		}
	}
}
