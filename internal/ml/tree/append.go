package tree

import (
	"sort"

	"ceal/internal/score"
)

// This file is the incremental-growth side of the training kernel.
// Boosted refits inside a tuning loop train on a matrix that only ever
// gains rows — one measured batch per iteration — so rebuilding the
// pre-sorted column index from scratch every fit repeats almost all of
// the previous fit's work. Append merge-appends the new rows into each
// column's (value, row) order in place, bitwise-identical to a
// from-scratch rebuild over the grown matrix, which the incremental
// property suite pins.

// Append extends the context to cover X, which must be the context's
// original matrix plus new rows at the tail (the prefix rows themselves
// unchanged — the context adopts X rather than copying it). Each column
// sorts just the fresh indices and merges them into the existing order in
// one backward pass. The merge is identical to re-sorting the whole
// column because every old row index is smaller than every new one: under
// the (value, row) order the two runs are each sorted, and on equal
// values old rows precede new rows exactly as a full sort would place
// them. Cost is O(b log b + n) per column instead of O(n log n).
func (c *Context) Append(e *score.Engine, X [][]float64) {
	old := c.n
	b := len(X) - old
	if b < 0 {
		panic("tree: Context.Append with fewer rows than the context holds")
	}
	if b == 0 {
		c.X = X
		return
	}
	if old == 0 {
		*c = *NewContext(e, X)
		return
	}
	c.X = X
	c.n = len(X)
	e.Tasks(c.dim, func(f int) {
		fresh := make([]int32, b)
		for i := range fresh {
			fresh[i] = int32(old + i)
		}
		sort.Slice(fresh, func(a, z int) bool {
			if X[fresh[a]][f] != X[fresh[z]][f] {
				return X[fresh[a]][f] < X[fresh[z]][f]
			}
			return fresh[a] < fresh[z]
		})
		s := append(c.sorted[f], fresh...)
		// Backward merge into the grown tail: on value ties take the fresh
		// index — it is the larger row, so (value, row) order holds.
		i, j := old-1, b-1
		for k := old + b - 1; j >= 0; k-- {
			if i >= 0 && X[s[i]][f] > X[fresh[j]][f] {
				s[k] = s[i]
				i--
			} else {
				s[k] = fresh[j]
				j--
			}
		}
		c.sorted[f] = s
	})
}

// nodeSlab hands out tree nodes from chunked backing arrays, replacing
// one heap allocation per node with one per chunk. Chunks are never
// reused or truncated: a filled chunk stays alive exactly as long as the
// trees pointing into it, so growers can keep allocating across fits
// while earlier fits' models remain valid. Node allocation happens only
// on the (serial) grow recursion, never inside fanned column tasks.
type nodeSlab struct {
	cur []node
}

const slabChunk = 512

func (s *nodeSlab) alloc(n node) *node {
	if len(s.cur) == cap(s.cur) {
		s.cur = make([]node, 0, slabChunk)
	}
	s.cur = append(s.cur, n)
	return &s.cur[len(s.cur)-1]
}
