package score

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantizeRows drives the rank-code builder with arbitrary
// byte-derived matrices — NaN payloads, ±Inf, subnormals and both zeros
// included — and checks what the code-space tree kernel relies on: every
// code decodes to its cell's value bitwise (−0 as +0 and any NaN as NaN:
// values are identified by ==, and no x < threshold split tells those
// apart), codes are monotone in value within a column, and NaN codes above
// every number, hence at or above any "values below the threshold" count.
//
// Run the full fuzzer with:
//
//	go test ./internal/score -run xxx -fuzz FuzzQuantizeRows -fuzztime 30s
func FuzzQuantizeRows(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	floats := func(n int, v func(i int) float64) []byte {
		b := make([]byte, 0, 8*n)
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v(i)))
		}
		return b
	}
	f.Add(floats(30, func(i int) float64 { return float64(i % 3) }), uint8(2))
	// 300 distinct values in column 0 — past what the old uint8 codes held.
	f.Add(floats(600, func(i int) float64 {
		if i%2 == 0 {
			return float64(i) * 0.5
		}
		return float64(i % 4)
	}), uint8(1))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, 1}
	f.Add(floats(40, func(i int) float64 { return specials[i%len(specials)] }), uint8(0))

	f.Fuzz(func(t *testing.T, raw []byte, width uint8) {
		dim := 1 + int(width)%4
		n := len(raw) / 8 / dim
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for c := range rows[i] {
				rows[i][c] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(i*dim+c)*8:]))
			}
		}
		q := QuantizeRows(New(int(width)/4), rows)
		if n == 0 {
			return
		}
		checkCodes(t, q, rows)
		for c := 0; c < dim; c++ {
			top := uint16(q.Count(c) - 1)
			for i, row := range rows {
				code := q.Row(i)[c]
				if row[c] != row[c] && code != top {
					t.Fatalf("col %d: NaN coded %d, want the top code %d", c, code, top)
				}
				for j := 0; j < i; j++ {
					cj := q.Row(j)[c]
					if (rows[j][c] < row[c] && cj >= code) || (rows[j][c] > row[c] && cj <= code) || (rows[j][c] == row[c] && cj != code) {
						t.Fatalf("col %d codes not ranks: %v→%d vs %v→%d", c, rows[j][c], cj, row[c], code)
					}
				}
			}
		}
	})
}
