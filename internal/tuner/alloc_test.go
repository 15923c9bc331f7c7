//go:build !race

package tuner

import (
	"testing"
)

// TestTakeTopSteadyStateAllocs guards the fused selector's steady state:
// once the run arena is warm, a takeTop pass over a large pool allocates
// only the returned config batch — no score slice, no candidate copy, no
// per-call heap growth. The bound is deliberately loose against the old
// full-materialize path (which allocated O(pool) floats and configs every
// call) but tight enough to catch any regression back to it.
func TestTakeTopSteadyStateAllocs(t *testing.T) {
	const poolN, n = 20000, 16
	p := synthProblem(3, poolN)
	p.Workers = 1 // serial engine: no goroutine-spawn allocations
	tr := newPoolTracker(p, newRunArena())
	scorer := func(idxs []int, out []float64, _ float64) {
		for j, idx := range idxs {
			out[j] = float64(idx % 97)
		}
	}
	backup := append([]int(nil), tr.remaining...)
	restore := func() {
		tr.remaining = tr.remaining[:len(backup)]
		copy(tr.remaining, backup)
	}
	tr.takeTop(n, scorer) // warm the arena
	restore()

	allocs := testing.AllocsPerRun(50, func() {
		restore()
		tr.takeTop(n, scorer)
	})
	// One alloc for the returned []cfgspace.Config; leave headroom for one
	// more (interface boxing etc.) but nothing pool-sized.
	if allocs > 2 {
		t.Errorf("takeTop steady state: %.1f allocs/run, want <= 2", allocs)
	}
}

// TestFinalScoreBufferReuse guards the arena's pool-score buffer: asking
// twice returns the same backing array (per-iteration FinalScores reuse),
// and the slice survives into a Result without the arena retaining it.
func TestFinalScoreBufferReuse(t *testing.T) {
	a := newRunArena()
	s1 := a.poolScores(500)
	s2 := a.poolScores(500)
	if &s1[0] != &s2[0] {
		t.Error("poolScores reallocated between iterations")
	}
	if len(s2) != 500 {
		t.Errorf("poolScores length %d, want 500", len(s2))
	}
}
