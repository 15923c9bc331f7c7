package score

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ceal/internal/cfgspace"
)

// checkCodes verifies a coded matrix against the rows it was built from:
// every code decodes to its cell's value bitwise (−0 as +0, NaN as NaN),
// and each column's values are strictly ascending with NaN, if any, last —
// so codes are ranks.
func checkCodes(t *testing.T, q *Codes, rows [][]float64) {
	t.Helper()
	if q.N != len(rows) {
		t.Fatalf("N = %d, want %d", q.N, len(rows))
	}
	for f := 0; f < q.Dim; f++ {
		vals := values(q, f)
		for k := 1; k < len(vals); k++ {
			if !(vals[k-1] < vals[k]) && !(vals[k] != vals[k] && k == len(vals)-1) {
				t.Fatalf("feature %d values not ascending at %d: %v, %v", f, k, vals[k-1], vals[k])
			}
		}
	}
	for i, row := range rows {
		for f, v := range row {
			got := q.Value(f, q.Row(i)[f])
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
// in a column still code; one more and QuantizeRows gives nil. Declared
// columns are refused by their declared width, whatever the pool holds:
// Matrix.Codes codes a column of MaxCodes values and refuses one of one
// more, or of 2^30, with ErrWideColumn naming the column, for a pool of
// three rows.
func TestQuantizeRowsWideColumn(t *testing.T) {
	rows := make([][]float64, MaxCodes+1)
	for i := range rows {
		rows[i] = []float64{float64(i % 7), float64(i)}
	}
	pool := []cfgspace.Config{{0, 5}, {3, 0}, {6, 9}}
	for _, e := range []*Engine{nil, New(4)} {
		checkCodes(t, QuantizeRows(e, rows[:MaxCodes]), rows[:MaxCodes])
		if q := QuantizeRows(e, rows); q != nil {
			t.Fatalf("workers=%d: a %d-distinct column was coded", e.Workers(), len(rows))
		}
		for _, top := range []int{MaxCodes - 1, MaxCodes, 1 << 30} {
			coder := cfgspace.NewCoder([]cfgspace.Param{cfgspace.NewParam("a", 0, 6), cfgspace.NewParam("b", 0, top)}, nil)
			var m Matrix
			q, err := m.Codes(e, pool, coder)
			if top < MaxCodes {
				checkCodes(t, q, [][]float64{{0, 5}, {3, 0}, {6, 9}})
				continue
			}
			if q != nil || !errors.Is(err, ErrWideColumn) || !strings.Contains(err.Error(), "feature b ") {
				t.Fatalf("workers=%d: Codes of a %d-value column = %v, %v; want ErrWideColumn naming feature b", e.Workers(), top+1, q, err)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m Matrix
	m.Codes(nil, pool, cfgspace.NewCoder([]cfgspace.Param{cfgspace.NewParam("a", 0, 6), cfgspace.NewParam("b", 0, 1<<30)}, nil))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Fatalf("refusing a 2^30-value column allocated %d bytes", got)
	}
}

// TestMatrixCodesOffLattice: a derived value off its column's declared
// lattice — below Min, above Max or between steps, on a stepped column or
// a unit-step one — fails the build with an *OffLatticeError naming the
// column and the value of the first such row in pool order, at any worker
// count; it is never coded as a neighbouring value.
func TestMatrixCodesOffLattice(t *testing.T) {
	cols := []cfgspace.Param{cfgspace.NewParam("a", 0, 9), cfgspace.NewSteppedParam("twice", 0, 18, 2)}
	for _, bad := range []int{-2, 20, 7} {
		coder := cfgspace.NewCoder(cols, func(cfg cfgspace.Config, dst []int) {
			dst[0], dst[1] = cfg[0], 2*cfg[0]
			if cfg[0] == 5 {
				dst[1] = bad
			}
		})
		pool := make([]cfgspace.Config, 300)
		for i := range pool {
			pool[i] = cfgspace.Config{i % 10}
		}
		for _, e := range []*Engine{nil, New(4)} {
			var m Matrix
			q, err := m.Codes(e, pool, coder)
			var off *OffLatticeError
			if q != nil || !errors.As(err, &off) || off.Col.Name != "twice" || off.Value != bad {
				t.Fatalf("workers=%d: a row deriving twice = %d coded as %v, %v; want an OffLatticeError for twice", e.Workers(), bad, q, err)
			}
		}
	}
	// Unit-step column a: every row from 100 on derives a value of its own
	// below Min or above Max, so only the first of them names the error.
	for _, off := range []func(i int) int{func(i int) int { return -i }, func(i int) int { return 9 + i }} {
		coder := cfgspace.NewCoder(cols, func(cfg cfgspace.Config, dst []int) {
			dst[0], dst[1] = cfg[0]%10, 2*(cfg[0]%10)
			if cfg[0] >= 100 {
				dst[0] = off(cfg[0])
			}
		})
		pool := make([]cfgspace.Config, 300)
		for i := range pool {
			pool[i] = cfgspace.Config{i}
		}
		for _, e := range []*Engine{nil, New(4)} {
			var m Matrix
			q, err := m.Codes(e, pool, coder)
			var got *OffLatticeError
			if q != nil || !errors.As(err, &got) || got.Col.Name != "a" || got.Value != off(100) {
				t.Fatalf("workers=%d: rows deriving a = %d, %d, ... coded as %v, %v; want an OffLatticeError for a = %d", e.Workers(), off(100), off(101), q, err, off(100))
			}
		}
	}
}

// TestQuantizedFootprint pins the shrink claim: a discovered pool is a
// quarter of the float cells plus small value tables, before the float rows' slice
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

// TestMatrixCodes: codes built from declared columns are lattice
// positions, decode to the coder's values, match the discovered codes of
// the featurized rows value for value, derive each configuration's columns
// once, and later calls serve the cache.
func TestMatrixCodes(t *testing.T) {
	pool := make([]cfgspace.Config, 3000)
	for i := range pool {
		pool[i] = cfgspace.Config{i % 50, i % 1200, i}
	}
	cols := []cfgspace.Param{cfgspace.NewParam("a", 0, 49), cfgspace.NewSteppedParam("b", -3, 1197, 3), cfgspace.NewParam("ab", 0, 49*1199)}
	calls := make([]int32, len(pool))
	coder := cfgspace.NewCoder(cols, func(cfg cfgspace.Config, dst []int) {
		calls[cfg[2]]++
		dst[0], dst[1], dst[2] = cfg[0], cfg[1]/3*3, cfg[0]*cfg[1]
	})
	var m Matrix
	q := mustCodes(t, &m, New(1), pool, coder)
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("configuration %d derived %d times, want once", i, c)
		}
	}
	if mustCodes(t, &m, New(1), pool, coder) != q {
		t.Fatal("second Codes call rebuilt the matrix")
	}
	rows := m.Rows(New(1), pool, coder.Features)
	checkCodes(t, q, rows)
	found := QuantizeRows(nil, rows)
	for i := range pool {
		for f, c := range q.Row(i) {
			if want := (int(rows[i][f]) - cols[f].Min) / cols[f].Step; int(c) != want {
				t.Fatalf("row %d feature %d: code %d, lattice position %d", i, f, c, want)
			}
			if q.Value(f, c) != found.Value(f, found.Row(i)[f]) {
				t.Fatalf("row %d feature %d: declared code decodes to %v, discovered to %v", i, f, q.Value(f, c), found.Value(f, found.Row(i)[f]))
			}
		}
	}
	// A declared column's cut is its lattice's count below the threshold,
	// wherever the threshold falls: on a value, between two, off either
	// end, or NaN.
	for f, c := range cols {
		if q.Count(f) != c.Count() {
			t.Fatalf("feature %d: %d values, lattice of %d", f, q.Count(f), c.Count())
		}
		lattice := values(q, f)
		for _, thr := range []float64{math.NaN(), math.Inf(-1), math.Inf(1), float64(c.Min) - 0.5, float64(c.Min), float64(c.Max), float64(c.Max) + 1, float64(c.Min+c.Step) + 0.5, float64(c.Value(c.Count() / 2))} {
			want := sort.Search(len(lattice), func(k int) bool { return !(lattice[k] < thr) })
			if got := q.Below(f, thr); int(got) != want {
				t.Fatalf("feature %d: %d values below %v, want %d", f, got, thr, want)
			}
		}
	}
}

// values returns feature f's values, code by code.
func values(q *Codes, f int) []float64 {
	vals := make([]float64, q.Count(f))
	for k := range vals {
		vals[k] = q.Value(f, uint16(k))
	}
	return vals
}
