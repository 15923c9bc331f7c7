package acm

import (
	"fmt"

	"ceal/internal/cfgspace"
	"ceal/internal/score"
)

// Span locates one part's features among a feature matrix's columns: Lo up
// to Hi (Lo == Hi: the part reads none).
type Span struct{ Lo, Hi int }

// cellBlock is how many cell representatives one PredictRows call takes:
// their codes and outputs stay in L1 while the trees stream.
const cellBlock = 256

// ScoreCodes scores the given rows of a rank-coded feature matrix (nil:
// every row, in order) on the engine's workers (nil engine: serial), one
// score a listed row: row i is configuration cfgs[i], and part j's
// features — its Coder's columns — are the matrix's columns spans[j].
//
//   - A part with no features is predicted once.
//   - A CellPredictor part is compiled into its columns (CodeCells) and
//     scored by cell. Per feature it splits on, a table derived from the
//     compiled cuts maps each code to its bucket: how many of the cuts the
//     code is not below. A row's cell is its bucket tuple. Each engine
//     chunk numbers its rows' cells by first occurrence (a
//     cfgspace.Numbering, checked against tuples recomputed from
//     representative rows), the chunks' numberings merge in chunk order,
//     and one representative a cell is predicted from its codes
//     (PredictRows).
//   - Any other part's Predict is called once a row on the decoded
//     features.
//   - BottleneckSum reads each row's cores from Part.Cores.
//
// Every row then folds its parts' values. Rows of one cell predict bitwise
// the same, so the scores are identical at any worker count and for any
// matrix that holds the same feature values. The codes hand predictors
// −0 as +0 and every NaN as one NaN, which no `x < t` comparison tells
// apart. Predictors must be read-only under Predict and PredictRows, and
// must not retain x.
func (lf *LowFidelity) ScoreCodes(e *score.Engine, q *score.Codes, rows []int, spans []Span, cfgs []cfgspace.Config) []float64 {
	n := q.N
	if rows != nil {
		n = len(rows)
	}
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	_, chunks := e.ChunkLayout(n)
	passes := make([]*partPass, len(lf.Parts))
	for j := range lf.Parts {
		passes[j] = newPartPass(&lf.Parts[j], q, rows, n, spans[j], chunks)
	}
	e.MapChunksIndexed(n, func(ci, lo, hi int) {
		for _, pp := range passes {
			pp.scan(ci, lo, hi)
		}
	})
	for _, pp := range passes {
		lf.cells.Add(int64(pp.predictCells(e)))
	}
	e.MapChunksIndexed(n, func(ci, lo, hi int) {
		vs := make([]float64, len(passes))
		var cores []float64
		if lf.Combine == BottleneckSum {
			cores = make([]float64, len(passes))
		}
		for i := lo; i < hi; i++ {
			for j, pp := range passes {
				vs[j] = pp.value(ci, i)
				if cores != nil {
					cores[j] = pp.part.cores(pp.part.Sub(cfgs[pp.row(i)]))
				}
			}
			out[i] = lf.fold(vs, cores)
		}
	})
	return out
}

// partPass is one part's share of a ScoreCodes call. Its positions are
// those of the call's scores: position i scores matrix row row(i).
type partPass struct {
	part *Part
	q    *score.Codes
	rows []int // the rows scored (nil: every row)
	span Span

	konst float64   // a part with no features: its one prediction
	vals  []float64 // a part scored by Predict: per position

	// A CellPredictor part, compiled into the matrix. Per feature it
	// splits on: the matrix column and each code's bucket.
	cc     CodedCells
	cols   []int
	bucket [][]uint16
	ids    []int32   // per position: its cell's number within its chunk
	reps   [][]int32 // per chunk: the first row of each of its cells
	global [][]int32 // per chunk: each of its cells' number in pred
	pred   []float64 // per cell scored: its prediction
}

func newPartPass(part *Part, q *score.Codes, rows []int, n int, span Span, chunks int) *partPass {
	pp := &partPass{part: part, q: q, rows: rows, span: span}
	if span.Lo == span.Hi {
		pp.konst = part.Predictor.Predict(nil)
		return pp
	}
	cp, ok := part.Predictor.(CellPredictor)
	if !ok {
		pp.vals = make([]float64, n)
		return pp
	}
	pp.cc = cp.CodeCells(q, span.Lo)
	cuts := pp.cc.Cuts()
	if len(cuts) > span.Hi-span.Lo {
		panic(fmt.Sprintf("acm: part %s's model splits on feature %d of %d", part.Name, len(cuts)-1, span.Hi-span.Lo))
	}
	for k, cut := range cuts {
		if len(cut) == 0 {
			continue
		}
		f := span.Lo + k
		b := make([]uint16, len(q.Values(f)))
		at := 0
		for c := range b {
			for at < len(cut) && int(cut[at]) <= c {
				at++
			}
			b[c] = uint16(at)
		}
		pp.cols, pp.bucket = append(pp.cols, f), append(pp.bucket, b)
	}
	pp.ids = make([]int32, n)
	pp.reps = make([][]int32, chunks)
	return pp
}

// row returns the matrix row scored at position i.
func (pp *partPass) row(i int) int {
	if pp.rows != nil {
		return pp.rows[i]
	}
	return i
}

// scan is chunk ci's first pass over its positions [lo, hi): Predict on
// each row, or each row's cell numbered within the chunk.
func (pp *partPass) scan(ci, lo, hi int) {
	switch {
	case pp.vals != nil:
		x := make([]float64, pp.span.Hi-pp.span.Lo)
		for i := lo; i < hi; i++ {
			pp.decode(pp.row(i), x)
			pp.vals[i] = pp.part.Predictor.Predict(x)
		}
	case pp.cc != nil:
		key, at := make([]int, len(pp.cols)), make([]int, len(pp.cols))
		nb := cfgspace.NewNumbering(min(hi-lo, cellBlock), func(id int32) []int { return pp.tuple(int(pp.reps[ci][id]), at) })
		for i := lo; i < hi; i++ {
			r := pp.row(i)
			id, fresh := nb.ID(pp.tuple(r, key))
			if fresh {
				pp.reps[ci] = append(pp.reps[ci], int32(r))
			}
			pp.ids[i] = id
		}
	}
}

// tuple writes row i's cell, its bucket tuple, into key and returns it.
func (pp *partPass) tuple(i int, key []int) []int {
	codes := pp.q.Row(i)
	for k, f := range pp.cols {
		key[k] = int(pp.bucket[k][codes[f]])
	}
	return key
}

// predictCells merges the chunks' numberings in chunk order, so numbers
// follow first occurrence over the whole matrix, predicts one
// representative a cell from its codes in blocks of cellBlock on the
// engine's workers, and returns how many it predicted.
func (pp *partPass) predictCells(e *score.Engine) int {
	if pp.cc == nil {
		return 0
	}
	found := 0
	for _, rs := range pp.reps {
		found += len(rs)
	}
	n := len(pp.cols)
	reps, key, at := make([]int32, 0, found), make([]int, n), make([]int, n)
	nb := cfgspace.NewNumbering(found, func(id int32) []int { return pp.tuple(int(reps[id]), at) })
	pp.global = make([][]int32, len(pp.reps))
	for ci, rs := range pp.reps {
		pp.global[ci] = make([]int32, len(rs))
		for l, r := range rs {
			id, fresh := nb.ID(pp.tuple(int(r), key))
			if fresh {
				reps = append(reps, r)
			}
			pp.global[ci][l] = id
		}
	}
	pp.pred = make([]float64, len(reps))
	e.Tasks((len(reps)+cellBlock-1)/cellBlock, func(b int) {
		lo, hi := b*cellBlock, min((b+1)*cellBlock, len(reps))
		pp.cc.PredictRows(reps[lo:hi], pp.pred[lo:hi])
	})
	return len(reps)
}

// decode writes row i's features of the part into x, as the matrix holds
// them.
func (pp *partPass) decode(i int, x []float64) {
	codes := pp.q.Row(i)
	for k := range x {
		x[k] = pp.q.Values(pp.span.Lo + k)[codes[pp.span.Lo+k]]
	}
}

// value is position i's prediction; ci is the position's chunk.
func (pp *partPass) value(ci, i int) float64 {
	switch {
	case pp.cc != nil:
		return pp.pred[pp.global[ci][pp.ids[i]]]
	case pp.vals != nil:
		return pp.vals[i]
	}
	return pp.konst
}
