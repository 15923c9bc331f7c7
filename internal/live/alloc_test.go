//go:build !race

package live

import (
	"runtime"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// TestCoresAllocs: the tuner asks every component for its reserved cores
// once per distinct sub-configuration of the pool; the answer comes from
// the declared layout, not from a component built to be thrown away.
func TestCoresAllocs(t *testing.T) {
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		for j, info := range Components(b) {
			sub := b.Sub(b.ExpertExec, j)
			if allocs := testing.AllocsPerRun(100, func() { info.Cores(sub) }); allocs != 0 {
				t.Errorf("%s/%s: Cores allocates %.0f times per call, want 0", b.Name, info.Name, allocs)
			}
		}
	}
}

// allocSink keeps what a measured allocation returns on the heap.
var allocSink any

// bytesPerRun is testing.AllocsPerRun counting bytes: the average heap
// bytes one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmFromHistoryAllocs: on 300 same-family runs, warm assembly
// allocates its result's slices once, at their final lengths — beyond what
// its queries and the benchmark lookup allocate alone, at most the bytes of
// slices that long, plus 4 KiB.
func TestWarmFromHistoryAllocs(t *testing.T) {
	db := familyHistory(300)
	spec := histdb.Spec{Benchmark: "LV", WarmStart: true}
	n := spec.Normalize()
	w := WarmFromHistory(db, spec)
	if w == nil || len(w.ComponentSamples) != 2 {
		t.Fatalf("warm start = %+v, want samples for LV's two components", w)
	}
	total := bytesPerRun(10, func() { allocSink = WarmFromHistory(db, spec) })
	alone := bytesPerRun(10, func() {
		allocSink, _ = workflow.ByName(cluster.Default(), n.Benchmark)
		allocSink = db.BySpecFamily(n.FamilyKey())
		allocSink = db.ByComponent("lammps")
		allocSink = db.ByComponent("voro")
	})
	result := bytesPerRun(10, func() {
		allocSink = make([]tuner.Sample, len(w.Samples))
		for _, cs := range w.ComponentSamples {
			allocSink = make([]tuner.Sample, len(cs))
		}
	})
	if total-alone > result+4096 {
		t.Errorf("WarmFromHistory allocates %.0f B beyond its queries, want <= %.0f B (its slices) + 4 KiB", total-alone, result)
	}
}
