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
// features are the matrix's columns spans[j], coded as its predictor was
// fitted.
//
//   - A part with no features is predicted once.
//   - Any other part is scored by cell. Per feature it splits on, a table
//     derived from its cuts maps each code to its bucket: how many of the
//     cuts the code is not below. A row's cell is its bucket tuple. Each
//     engine chunk numbers its rows' cells by first occurrence (a
//     cfgspace.Numbering, checked against tuples recomputed from
//     representative rows), the chunks' numberings merge in chunk order,
//     and one representative a cell is predicted from its codes
//     (PredictRows).
//   - BottleneckSum reads each row's cores from Part.Cores.
//
// Every row then folds its parts' values. Rows of one cell predict bitwise
// the same, so the scores are identical at any worker count. Predictors
// must be safe for concurrent PredictRows calls.
func (lf *LowFidelity) ScoreCodes(e *score.Engine, q *score.Codes, rows []int, spans []Span, cfgs []cfgspace.Config) []float64 {
	n := q.N
	if rows != nil {
		n = len(rows)
	}
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	passes := lf.predict(e, q, rows, n, spans)
	for _, pp := range passes {
		lf.cells.Add(int64(len(pp.pred)))
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

// PartScores returns, per part, its prediction for every row of q, as
// ScoreCodes computes them before it folds them (and without counting
// cells).
func (lf *LowFidelity) PartScores(e *score.Engine, q *score.Codes, spans []Span) [][]float64 {
	out := make([][]float64, len(lf.Parts))
	passes := lf.predict(e, q, nil, q.N, spans)
	for j := range passes {
		out[j] = make([]float64, q.N)
	}
	e.MapChunksIndexed(q.N, func(ci, lo, hi int) {
		for j, pp := range passes {
			for i := lo; i < hi; i++ {
				out[j][i] = pp.value(ci, i)
			}
		}
	})
	return out
}

// predict runs every part's pass over the n listed rows: the cells of each
// engine chunk numbered, then one representative a cell predicted.
func (lf *LowFidelity) predict(e *score.Engine, q *score.Codes, rows []int, n int, spans []Span) []*partPass {
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
		pp.predictCells(e)
	}
	return passes
}

// partPass is one part's share of a ScoreCodes call. Its positions are
// those of the call's scores: position i scores matrix row row(i).
type partPass struct {
	part *Part
	q    *score.Codes
	rows []int // the rows scored (nil: every row)
	span Span

	konst float64 // a part with no features: its one prediction

	// A part with features. Per feature it splits on: the matrix column
	// and each code's bucket.
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
		out := []float64{0}
		part.Predictor.PredictRows(q, span.Lo, []int32{int32(pp.row(0))}, out)
		pp.konst = out[0]
		return pp
	}
	cuts := part.Predictor.Cuts()
	if len(cuts) > span.Hi-span.Lo {
		panic(fmt.Sprintf("acm: part %s's model splits on feature %d of %d", part.Name, len(cuts)-1, span.Hi-span.Lo))
	}
	for k, cut := range cuts {
		if len(cut) == 0 {
			continue
		}
		f := span.Lo + k
		b := make([]uint16, q.Count(f))
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

// scan is chunk ci's first pass over its positions [lo, hi): each row's
// cell numbered within the chunk (nothing for a part with no features).
func (pp *partPass) scan(ci, lo, hi int) {
	if pp.ids == nil {
		return
	}
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
// engine's workers into pred.
func (pp *partPass) predictCells(e *score.Engine) {
	if pp.ids == nil {
		return
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
		pp.part.Predictor.PredictRows(pp.q, pp.span.Lo, reps[lo:hi], pp.pred[lo:hi])
	})
}

// value is position i's prediction; ci is the position's chunk.
func (pp *partPass) value(ci, i int) float64 {
	if pp.ids == nil {
		return pp.konst
	}
	return pp.pred[pp.global[ci][pp.ids[i]]]
}
