package score

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"ceal/internal/cfgspace"
)

// checkCodes verifies a coded matrix against the rows it was built from:
// every code decodes to its cell's value bitwise (−0 as +0, NaN as NaN),
// and each value table is strictly ascending with NaN, if any, last — so
// codes are ranks.
func checkCodes(t *testing.T, q *Codes, rows [][]float64) {
	t.Helper()
	if q.N != len(rows) {
		t.Fatalf("N = %d, want %d", q.N, len(rows))
	}
	for f := 0; f < q.Dim; f++ {
		vals := q.Values(f)
		for k := 1; k < len(vals); k++ {
			if !(vals[k-1] < vals[k]) && !(vals[k] != vals[k] && k == len(vals)-1) {
				t.Fatalf("feature %d value table not ascending at %d: %v, %v", f, k, vals[k-1], vals[k])
			}
		}
	}
	for i, row := range rows {
		for f, v := range row {
			got := q.Values(f)[q.Row(i)[f]]
			if v != v {
				if got == got {
					t.Fatalf("row %d feature %d: NaN decoded as %v", i, f, got)
				}
				continue
			}
			if v == 0 {
				v = 0
			}
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("row %d feature %d: decoded %v, want %v", i, f, got, v)
			}
		}
	}
}

// TestQuantizeRowsLosslessIdentity: decoding reproduces the original rows
// bitwise at any worker count, including the special values a featurizer
// could emit — the property that makes coded pool scoring
// prediction-exact.
func TestQuantizeRowsLosslessIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n, dim := 700, 6
	rows := make([][]float64, n)
	levels := make([][]float64, dim)
	for f := range levels {
		lv := make([]float64, 2+rng.IntN(400))
		for j := range lv {
			lv[j] = rng.NormFloat64() * 100
		}
		levels[f] = lv
	}
	levels[0] = append(levels[0], math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1))
	for i := range rows {
		rows[i] = make([]float64, dim)
		for f := range rows[i] {
			rows[i][f] = levels[f][rng.IntN(len(levels[f]))]
		}
	}
	var ref *Codes
	for _, e := range []*Engine{nil, New(2), New(4), New(7)} {
		q := QuantizeRows(e, rows)
		checkCodes(t, q, rows)
		if ref == nil {
			ref = q
			continue
		}
		for i := range rows {
			for f, c := range q.Row(i) {
				if c != ref.Row(i)[f] {
					t.Fatalf("workers=%d: row %d feature %d coded %d, serial %d", e.Workers(), i, f, c, ref.Row(i)[f])
				}
			}
		}
	}
}

// TestQuantizeRowsWideColumn pins the refusal: MaxCodes distinct values
// in a column still code; one more and QuantizeRows gives nil and
// Matrix.Codes refuses the pool with ErrWideColumn, naming the column.
func TestQuantizeRowsWideColumn(t *testing.T) {
	rows := make([][]float64, MaxCodes+1)
	pool := make([]cfgspace.Config, len(rows))
	for i := range rows {
		rows[i] = []float64{float64(i % 7), float64(i)}
		pool[i] = cfgspace.Config{i}
	}
	feats := func(cfg cfgspace.Config) []float64 { return rows[cfg[0]] }
	for _, e := range []*Engine{nil, New(4)} {
		checkCodes(t, QuantizeRows(e, rows[:MaxCodes]), rows[:MaxCodes])
		var m Matrix
		checkCodes(t, mustCodes(t, &m, e, pool[:MaxCodes], feats), rows[:MaxCodes])
		if q := QuantizeRows(e, rows); q != nil {
			t.Fatalf("workers=%d: a %d-distinct column was coded", e.Workers(), len(rows))
		}
		q, err := m.Codes(e, pool, feats)
		if q != nil || !errors.Is(err, ErrWideColumn) || !strings.Contains(err.Error(), "feature 1 ") {
			t.Fatalf("workers=%d: Codes of a %d-distinct column = %v, %v; want ErrWideColumn naming feature 1", e.Workers(), len(rows), q, err)
		}
	}
}

// TestQuantizedFootprint pins the shrink claim: a coded pool is a quarter
// of the float cells plus small value tables, before the float rows' slice
// headers are even counted.
func TestQuantizedFootprint(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	n, dim := 4096, 8
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for f := range rows[i] {
			rows[i][f] = float64(rng.IntN(64))
		}
	}
	q := QuantizeRows(nil, rows)
	floatBytes := n * dim * 8
	fp := 2 * len(q.codes) // codes plus value tables
	for _, v := range q.values {
		fp += 8 * len(v)
	}
	if fp > floatBytes*3/10 {
		t.Fatalf("coded footprint %d bytes vs %d float bytes — expected a ~4x shrink", fp, floatBytes)
	}
}

// TestMatrixCodes: codes built straight from the featurizer equal codes
// built from the float rows, the featurizer runs once per configuration,
// and later calls serve the cache.
func TestMatrixCodes(t *testing.T) {
	pool := make([]cfgspace.Config, 3000)
	for i := range pool {
		pool[i] = cfgspace.Config{i % 50, i % 1200, i}
	}
	calls := make([]int32, len(pool))
	feats := func(cfg cfgspace.Config) []float64 {
		calls[cfg[2]]++
		return []float64{float64(cfg[0]), float64(cfg[1]) / 3, float64(cfg[0] * cfg[1])}
	}
	var m Matrix
	q := mustCodes(t, &m, New(1), pool, feats)
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("configuration %d featurized %d times, want once", i, c)
		}
	}
	if mustCodes(t, &m, New(1), pool, feats) != q {
		t.Fatal("second Codes call rebuilt the matrix")
	}
	rows := m.Rows(New(1), pool, feats)
	checkCodes(t, q, rows)
	want := QuantizeRows(nil, rows)
	for i := range pool {
		for f, c := range q.Row(i) {
			if c != want.Row(i)[f] {
				t.Fatalf("row %d feature %d: featurizer-built code %d, row-built %d", i, f, c, want.Row(i)[f])
			}
		}
	}
}
