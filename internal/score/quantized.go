// Quantized pool features: a candidate pool's feature matrix as
// per-column uint8 codes plus a ≤256-entry value table per column —
// about 8× smaller than float rows — with *identity* reconstruction
// whenever every column really has at most 256 distinct values, which
// holds for the finite config-space samples this repo pools. Lossless()
// reports that: a lossless quantized pool decodes to exactly the floats
// Matrix.Rows produces, so model predictions over it are bitwise
// identical to the float path.
//
// No tuner scores from codes today (decoding per row costs more than the
// float walk). The representation stays as what the perf ledger times
// (xgb.predict.quant_ns_per_row) and as the substrate the ROADMAP
// "Predict on codes" item starts from.
package score

import "sort"

// Quantized is one candidate pool's features as per-column uint8 codes
// plus per-column decode tables. Immutable after construction.
type Quantized struct {
	N, Dim   int
	codes    []uint8     // column-major: codes[f*N+i]
	values   [][]float64 // per feature: code → reconstructed value
	lossless bool
}

// Lossless reports whether decoding reproduces every original feature
// value exactly (every column had at most 256 distinct values).
func (q *Quantized) Lossless() bool { return q.lossless }

// Row decodes row i into buf (allocating when buf is too small) and
// returns it. For a lossless matrix the decoded row is bitwise identical
// to the row Matrix.Rows would cache.
func (q *Quantized) Row(i int, buf []float64) []float64 {
	if cap(buf) < q.Dim {
		buf = make([]float64, q.Dim)
	}
	buf = buf[:q.Dim]
	for f := 0; f < q.Dim; f++ {
		buf[f] = q.values[f][q.codes[f*q.N+i]]
	}
	return buf
}

// FootprintBytes returns the retained size of the quantized pool (codes
// plus decode tables).
func (q *Quantized) FootprintBytes() int {
	b := len(q.codes)
	for _, v := range q.values {
		b += 8 * len(v)
	}
	return b
}

// QuantizeRows quantizes a row-major float matrix, fanning per-column
// work across the engine. Each column with at most 256 distinct values
// gets one code per distinct value (identity reconstruction); wider
// columns group adjacent values into 256 near-equal-count bins decoded
// to the bin's smallest value, and mark the result lossy.
func QuantizeRows(e *Engine, rows [][]float64) *Quantized {
	q := &Quantized{N: len(rows)}
	if q.N == 0 {
		q.lossless = true
		return q
	}
	q.Dim = len(rows[0])
	q.codes = make([]uint8, q.Dim*q.N)
	q.values = make([][]float64, q.Dim)
	exact := make([]bool, q.Dim)
	e.Tasks(q.Dim, func(f int) {
		col := make([]float64, q.N)
		for i, row := range rows {
			col[i] = row[f]
		}
		q.values[f], exact[f] = quantizePoolColumn(col, q.codes[f*q.N:(f+1)*q.N])
	})
	q.lossless = true
	for _, ok := range exact {
		q.lossless = q.lossless && ok
	}
	return q
}

// quantizePoolColumn codes one column, returning the decode table and
// whether the coding is exact.
func quantizePoolColumn(col []float64, codesOut []uint8) (values []float64, exact bool) {
	n := len(col)
	sorted := make([]float64, n)
	copy(sorted, col)
	sort.Float64s(sorted)
	ds := sorted[:0:0]
	starts := make([]int, 0, 16)
	for i := 0; i < n; {
		j := i + 1
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		ds = append(ds, sorted[i])
		starts = append(starts, i)
		i = j
	}
	d := len(ds)
	binOf := make([]int, d)
	exact = d <= 256
	if exact {
		for j := range binOf {
			binOf[j] = j
		}
	} else {
		prevRaw, next := -1, -1
		for j := 0; j < d; j++ {
			raw := starts[j] * 256 / n
			if raw != prevRaw {
				prevRaw = raw
				next++
			}
			binOf[j] = next
		}
	}
	values = make([]float64, binOf[d-1]+1)
	for j := d - 1; j >= 0; j-- {
		values[binOf[j]] = ds[j] // the bin's smallest value wins
	}
	for i, v := range col {
		j := sort.SearchFloat64s(ds, v)
		if j >= d || ds[j] != v {
			j = d - 1
		}
		codesOut[i] = uint8(binOf[j])
	}
	return values, exact
}
