// Rank-coded pool features: a candidate pool's feature matrix as one
// uint16 per cell — the rank of the cell's value among its column's
// distinct values — plus a per-column value table, a quarter of the float
// rows' size before slice headers. The coding is lossless (a code decodes
// to the value it stood for, −0 folded into +0, which no `x < threshold`
// split can tell apart) and order-preserving, so a tree ensemble compiles
// each split threshold into "how many of the column's values lie below
// it" once per fit and then descends on integer compares alone:
// code < count ⇔ x < threshold. NaN sorts after every number and so codes
// above every count, taking the right branch exactly as the float compare
// sends it.
//
// A column with more than MaxCodes distinct values does not fit a uint16
// rank, and a pool holding one is refused with ErrWideColumn: codes are
// the only form a pool is scored in. Every pool this repository samples is
// far inside the limit (the widest paper column has ~2.4k distinct values).
package score

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// MaxCodes is the most distinct values a column may have and still be
// rank-coded: ranks 0..MaxCodes-1, and the count of values below a
// threshold (at most MaxCodes) also fits a uint16.
const MaxCodes = math.MaxUint16

// ErrWideColumn refuses a pool with a column of more than MaxCodes
// distinct values; the error wrapping it names the column.
var ErrWideColumn = errors.New("score: feature column too wide to rank-code")

// wideColumn is the refusal of a pool whose feature f is too wide.
func wideColumn(f int) error {
	return fmt.Errorf("%w: feature %d has more than %d distinct values", ErrWideColumn, f, MaxCodes)
}

// Codes is one candidate pool's features as rank codes. Immutable after
// construction.
type Codes struct {
	N, Dim int
	codes  []uint16    // row-major: codes[i*Dim+f]
	values [][]float64 // per feature: ascending distinct values, NaN last; code → value
}

// Row returns row i's codes.
func (q *Codes) Row(i int) []uint16 {
	return q.codes[i*q.Dim : (i+1)*q.Dim : (i+1)*q.Dim]
}

// Values returns feature f's value table: Values(f)[code] is the value
// the code stands for.
func (q *Codes) Values(f int) []float64 { return q.values[f] }

// QuantizeRows rank-codes a row-major float matrix on the engine's
// workers. It returns nil for a matrix with a column wider than MaxCodes.
func QuantizeRows(e *Engine, rows [][]float64) *Codes {
	q, _ := buildCodes(e, len(rows), func(i int) []float64 { return rows[i] })
	return q
}

// canonBits is the identity a value is coded by: its bits, with −0 folded
// into +0 (they compare equal) and every NaN payload into one.
func canonBits(v float64) uint64 {
	switch {
	case v == 0:
		return 0
	case v != v:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// lessNaNLast orders floats ascending with NaN after everything.
func lessNaNLast(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// buildCodes rank-codes the n rows row(i) yields, holding no float row
// beyond the one in hand: each engine chunk numbers its columns' values in
// first-seen order straight into the code matrix, the per-chunk value
// lists are merged and sorted per column, and one more pass rewrites every
// provisional number as its rank. Ranks depend only on the values, so the
// result is the same for any worker count. row is called exactly once per
// index. A column with more than MaxCodes distinct values aborts the build
// with ErrWideColumn.
func buildCodes(e *Engine, n int, row func(i int) []float64) (*Codes, error) {
	if n == 0 {
		return &Codes{}, nil
	}
	first := row(0)
	dim := len(first)
	q := &Codes{N: n, Dim: dim, codes: make([]uint16, n*dim), values: make([][]float64, dim)}

	_, chunks := e.ChunkLayout(n)
	seen := make([][][]float64, chunks) // per chunk, per feature: values in first-seen order
	wide := make([]int, chunks)         // per chunk: 1 + the column it found too wide, or 0
	e.MapChunksIndexed(n, func(ci, lo, hi int) {
		ids := make([]map[uint64]uint16, dim)
		vals := make([][]float64, dim)
		for f := range ids {
			ids[f] = make(map[uint64]uint16)
		}
		for i := lo; i < hi; i++ {
			x := first
			if i > 0 {
				x = row(i)
			}
			out := q.codes[i*dim : (i+1)*dim]
			for f, v := range x {
				key := canonBits(v)
				id, ok := ids[f][key]
				if !ok {
					if len(vals[f]) == MaxCodes {
						wide[ci] = f + 1
						return
					}
					id = uint16(len(vals[f]))
					ids[f][key] = id
					vals[f] = append(vals[f], math.Float64frombits(key))
				}
				out[f] = id
			}
		}
		seen[ci] = vals
	})
	for _, f := range wide {
		if f > 0 {
			return nil, wideColumn(f - 1)
		}
	}

	// Per column: the sorted union of the chunks' values, then each
	// chunk's provisional number → rank table. A column too wide once the
	// chunks are merged leaves its value table nil.
	rank := make([][][]uint16, chunks)
	for ci := range rank {
		rank[ci] = make([][]uint16, dim)
	}
	e.Tasks(dim, func(f int) {
		var all []float64
		for _, vals := range seen {
			all = append(all, vals[f]...)
		}
		slices.SortFunc(all, lessNaNLast)
		all = slices.CompactFunc(all, func(a, b float64) bool { return lessNaNLast(a, b) == 0 })
		if len(all) > MaxCodes {
			return
		}
		q.values[f] = all
		for ci, vals := range seen {
			r := make([]uint16, len(vals[f]))
			for id, v := range vals[f] {
				k, _ := slices.BinarySearchFunc(all, v, lessNaNLast)
				r[id] = uint16(k)
			}
			rank[ci][f] = r
		}
	})
	if f := slices.IndexFunc(q.values, func(v []float64) bool { return v == nil }); f >= 0 {
		return nil, wideColumn(f)
	}
	e.MapChunksIndexed(n, func(ci, lo, hi int) {
		r := rank[ci]
		for i := lo; i < hi; i++ {
			out := q.codes[i*dim : (i+1)*dim]
			for f, id := range out {
				out[f] = r[f][id]
			}
		}
	})
	return q, nil
}
