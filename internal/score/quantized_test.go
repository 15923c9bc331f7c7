package score

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestQuantizeRowsLosslessIdentity: when every column has at most 256
// distinct values, decoding must reproduce the original rows bitwise —
// the property that makes quantized pool scoring prediction-exact.
func TestQuantizeRowsLosslessIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n, dim := 700, 6
	rows := make([][]float64, n)
	levels := make([][]float64, dim)
	for f := range levels {
		lv := make([]float64, 2+rng.IntN(250))
		for j := range lv {
			lv[j] = rng.NormFloat64() * 100
		}
		levels[f] = lv
	}
	for i := range rows {
		rows[i] = make([]float64, dim)
		for f := range rows[i] {
			rows[i][f] = levels[f][rng.IntN(len(levels[f]))]
		}
	}
	for _, e := range []*Engine{nil, New(4)} {
		q := QuantizeRows(e, rows)
		if !q.Lossless() {
			t.Fatal("low-cardinality rows quantized lossily")
		}
		buf := make([]float64, dim)
		for i, row := range rows {
			got := q.Row(i, buf)
			for f := range row {
				if math.Float64bits(got[f]) != math.Float64bits(row[f]) {
					t.Fatalf("row %d feature %d: decoded %v, want %v", i, f, got[f], row[f])
				}
			}
		}
	}
}

// TestQuantizeRowsLossy: columns wider than 256 distinct values mark the
// matrix lossy, and decoded values are each bin's smallest member — a
// lower bound on the original, never above it.
func TestQuantizeRowsLossy(t *testing.T) {
	n := 2000
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(i % 7)}
	}
	q := QuantizeRows(nil, rows)
	if q.Lossless() {
		t.Fatal("2000-distinct column marked lossless")
	}
	buf := make([]float64, 2)
	prev := math.Inf(-1)
	for i, row := range rows {
		got := q.Row(i, buf)
		if got[0] > row[0] {
			t.Fatalf("row %d: decoded %v above original %v", i, got[0], row[0])
		}
		// Rows are sorted by column 0, so decoded values must be monotone.
		if got[0] < prev {
			t.Fatalf("row %d: decoded %v below previous %v", i, got[0], prev)
		}
		prev = got[0]
		if math.Float64bits(got[1]) != math.Float64bits(row[1]) {
			t.Fatalf("row %d: exact column decoded %v, want %v", i, got[1], row[1])
		}
	}
}

// TestQuantizedFootprint pins the shrink claim: for a discrete
// 4096×8 pool the quantized footprint must be well under a quarter of
// the float matrix's (it is ~1/8 plus small decode tables).
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
	if !q.Lossless() {
		t.Fatal("discrete pool quantized lossily")
	}
	floatBytes := n * dim * 8
	if fp := q.FootprintBytes(); fp > floatBytes/4 {
		t.Fatalf("quantized footprint %d bytes vs %d float bytes — expected ≥4x shrink", fp, floatBytes)
	}
}
