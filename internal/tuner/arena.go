package tuner

// runArena is the per-run scratch pool owned by State: every buffer the
// steady-state iteration cycle needs — the fused selector's per-chunk
// top-k heaps and streaming score blocks, its merge and removal buffers,
// and the final pool-scores slice — is acquired here and recycled across
// iterations, so a settled tuning loop stops allocating per iteration.
//
// Ownership rules:
//   - The arena lives exactly as long as one Loop.Run (tuner.Continuous
//     builds a fresh State, and therefore a fresh arena, per segment).
//   - Buffers are recycled between iterations, never within one: a caller
//     holds an arena buffer only until its takeTop / FinalScores call
//     returns a caller-owned value.
//   - poolScores is the one buffer that escapes: FinalScores hands it to
//     finish(), which stores it as Result.PoolScores. That is sound
//     because it is the run's final act — the arena is dead once Run
//     returns, so the Result still exclusively owns the slice.
//   - Per-chunk slots (heaps, blocks) are written concurrently by the
//     scoring fan; each chunk touches only its own slot, preserving the
//     engine's determinism contract.
//
// Training-side scratch (pre-sorted columns, grower and round buffers)
// is recycled by the surrogate's xgb.Booster, which the per-run strategy
// owns — see Surrogate.Train.
type runArena struct {
	heaps  [][]topkEntry // fused selector: one bounded top-k heap per chunk
	blocks [][]float64   // fused selector: one streaming score block per chunk
	cand   []topkEntry   // fused selector: merged per-chunk survivors
	kill   []int32       // fused selector: positions to remove, sorted ascending
	scores []float64     // FinalScores output; escapes into Result.PoolScores
}

func newRunArena() *runArena { return &runArena{} }

// topkHeaps returns nc per-chunk heap buffers, each with capacity for at
// least n entries and length zero.
func (a *runArena) topkHeaps(nc, n int) [][]topkEntry {
	if cap(a.heaps) < nc {
		grown := make([][]topkEntry, nc)
		copy(grown, a.heaps)
		a.heaps = grown
	}
	a.heaps = a.heaps[:nc]
	for i := range a.heaps {
		if cap(a.heaps[i]) < n {
			a.heaps[i] = make([]topkEntry, 0, n)
		} else {
			a.heaps[i] = a.heaps[i][:0]
		}
	}
	return a.heaps
}

// scoreBlocks returns nc per-chunk score buffers of selectBlock capacity.
func (a *runArena) scoreBlocks(nc int) [][]float64 {
	if cap(a.blocks) < nc {
		grown := make([][]float64, nc)
		copy(grown, a.blocks)
		a.blocks = grown
	}
	a.blocks = a.blocks[:nc]
	for i := range a.blocks {
		if a.blocks[i] == nil {
			a.blocks[i] = make([]float64, selectBlock)
		}
	}
	return a.blocks
}

// candBuf returns the empty merge buffer (capacity grows with use).
func (a *runArena) candBuf() []topkEntry { return a.cand[:0] }

// killBuf returns a removal buffer of length n.
func (a *runArena) killBuf(n int) []int32 {
	if cap(a.kill) < n {
		a.kill = make([]int32, n)
	}
	return a.kill[:n]
}

// poolScores returns the length-n final-scores buffer. Reusable across
// mid-run calls; the last caller's result may escape into the Result (see
// ownership rules above).
func (a *runArena) poolScores(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if cap(a.scores) < n {
		a.scores = make([]float64, n)
	}
	return a.scores[:n]
}
