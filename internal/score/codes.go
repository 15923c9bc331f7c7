// Rank-coded pool features: a candidate pool's feature matrix as one
// uint16 per cell — the cell's rank among its column's values — a quarter
// of the float rows' size. The coding is lossless and order-preserving, so
// a tree ensemble grown on codes stores each split as "how many of the
// column's values lie below it" and descends on integer compares alone:
// code < count ⇔ x < thr.
//
// A pool is coded from its space's declared columns (cfgspace.Coder): a
// column's values are its whole lattice, a code is (value−Min)/Step and
// decodes by arithmetic, with no table. Values no row takes change no
// `x < thr` answer, so predictions are the float rows' bit for bit. A
// column declared wider than MaxCodes is refused with ErrWideColumn, a
// value off its lattice with an *OffLatticeError. QuantizeRows codes float
// rows by discovery, each column with a table of its distinct values, for
// features no declaration bounds (ALpH's component predictions).
package score

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"ceal/internal/cfgspace"
)

// MaxCodes is the most values a column may have and still be rank-coded:
// ranks 0..MaxCodes-1, and the count of values below a threshold (at most
// MaxCodes) also fits a uint16.
const MaxCodes = math.MaxUint16

// ErrWideColumn refuses a pool with a column of more than MaxCodes values;
// the error wrapping it names the column.
var ErrWideColumn = errors.New("score: feature column too wide to rank-code")

// OffLatticeError refuses a pool row that derives Value for column Col,
// off the column's declared lattice: a declaration that does not bound
// what its configurations derive.
type OffLatticeError struct {
	Col   cfgspace.Param
	Value int
}

func (e *OffLatticeError) Error() string {
	return fmt.Sprintf("score: feature %s = %d is off its declared lattice %d..%d step %d", e.Col.Name, e.Value, e.Col.Min, e.Col.Max, e.Col.Step)
}

// Codes is one candidate pool's features as rank codes. Immutable after
// construction.
type Codes struct {
	N, Dim int
	codes  []uint16         // row-major: codes[i*Dim+f]
	cols   []cfgspace.Param // declared: code k of feature f is cols[f].Value(k)
	values [][]float64      // discovered: per feature, ascending distinct values, NaN last
}

// Row returns row i's codes.
func (q *Codes) Row(i int) []uint16 {
	return q.codes[i*q.Dim : (i+1)*q.Dim : (i+1)*q.Dim]
}

// Count returns how many values feature f's column has: its codes are
// 0..Count(f)−1.
func (q *Codes) Count(f int) int {
	if q.values != nil {
		return len(q.values[f])
	}
	return q.cols[f].Count()
}

// Value returns the value code c of feature f stands for.
func (q *Codes) Value(f int, c uint16) float64 {
	if q.values != nil {
		return q.values[f][c]
	}
	return float64(q.cols[f].Value(int(c)))
}

// Below returns how many of feature f's values lie below thr: the cut of a
// split at thr, as code < Below(f, thr) ⇔ value < thr.
func (q *Codes) Below(f int, thr float64) uint16 {
	a, b := 0, q.Count(f)
	for a < b {
		if mid := int(uint(a+b) >> 1); q.Value(f, uint16(mid)) < thr {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return uint16(a)
}

// QuantizeRows rank-codes a row-major float matrix by discovery: each
// column's value table is its distinct values, ascending with NaN last
// (−0 folded into +0, which no `x < threshold` split tells apart), sorted
// on the engine's workers. It returns nil for a matrix with a column of
// more than MaxCodes distinct values.
func QuantizeRows(e *Engine, rows [][]float64) *Codes {
	if len(rows) == 0 {
		return &Codes{}
	}
	dim := len(rows[0])
	q := &Codes{N: len(rows), Dim: dim, codes: make([]uint16, len(rows)*dim), values: make([][]float64, dim)}
	e.Tasks(dim, func(f int) {
		vals := make([]float64, len(rows))
		for i, row := range rows {
			vals[i] = row[f]
			if vals[i] == 0 {
				vals[i] = 0
			}
		}
		slices.SortFunc(vals, lessNaNLast)
		vals = slices.Clip(slices.CompactFunc(vals, func(a, b float64) bool { return lessNaNLast(a, b) == 0 }))
		if len(vals) > MaxCodes {
			return // leaves the table nil
		}
		q.values[f] = vals
		for i, row := range rows {
			k, _ := slices.BinarySearchFunc(vals, row[f], lessNaNLast)
			q.codes[i*dim+f] = uint16(k)
		}
	})
	if slices.ContainsFunc(q.values, func(v []float64) bool { return v == nil }) {
		return nil
	}
	return q
}

// lessNaNLast orders floats ascending with NaN after everything
// (cmp.Compare puts it before).
func lessNaNLast(a, b float64) int {
	if a != a || b != b {
		return cmp.Compare(b, a)
	}
	return cmp.Compare(a, b)
}

// Encode codes pool by its declared columns on the engine's workers, each
// chunk deriving rows into one scratch slice. A column too wide is refused
// with ErrWideColumn before any row is coded; of the rows off a lattice,
// the first in pool order names the *OffLatticeError, at any worker count.
func Encode(e *Engine, pool []cfgspace.Config, coder *cfgspace.Coder) (*Codes, error) {
	dim := coder.Width()
	for _, c := range coder.Cols {
		if c.Count() > MaxCodes {
			return nil, fmt.Errorf("%w: feature %s declares %d values, more than %d", ErrWideColumn, c.Name, c.Count(), MaxCodes)
		}
	}
	q := &Codes{N: len(pool), Dim: dim, codes: make([]uint16, len(pool)*dim), cols: coder.Cols}
	_, chunks := e.ChunkLayout(len(pool))
	errs := make([]error, chunks)
	e.MapChunksIndexed(len(pool), func(ci, lo, hi int) {
		v := make([]int, dim)
		for i := lo; i < hi; i++ {
			coder.Ints(pool[i], v)
			out := q.codes[i*dim : (i+1)*dim]
			for f, c := range coder.Cols {
				// A unit step needs neither Contains' remainder nor a division.
				code, ok := v[f]-c.Min, c.Min <= v[f] && v[f] <= c.Max
				if c.Step != 1 {
					code, ok = code/c.Step, c.Contains(v[f])
				}
				if !ok {
					errs[ci] = &OffLatticeError{Col: c, Value: v[f]}
					return
				}
				out[f] = uint16(code)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return q, nil
}
