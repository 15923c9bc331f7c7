package score

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantizeRows drives QuantizeRows with arbitrary byte-derived
// matrices and checks what its consumers rely on: a column set with at
// most 256 distinct values each is Lossless and every Row decodes to the
// input bitwise; any wider column makes the matrix lossy, decoding each
// value to one no larger than itself; and either way codes are monotone
// in value within a column. NaN is outside the quantizer's contract, and
// −0 is folded into +0 because values are identified by ==: a column
// mixing the two decodes to either (the same side of every x < threshold
// split, but not the same bits).
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
	// 300 distinct values in column 0, two in column 1: the lossy regime.
	f.Add(floats(600, func(i int) float64 {
		if i%2 == 0 {
			return float64(i) * 0.5
		}
		return float64(i % 4)
	}), uint8(1))

	f.Fuzz(func(t *testing.T, raw []byte, width uint8) {
		dim := 1 + int(width)%4
		n := len(raw) / 8 / dim
		rows := make([][]float64, n)
		distinct := make([]map[float64]bool, dim)
		for c := range distinct {
			distinct[c] = map[float64]bool{}
		}
		for i := range rows {
			rows[i] = make([]float64, dim)
			for c := range rows[i] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw[(i*dim+c)*8:]))
				if math.IsNaN(v) || v == 0 { // v == 0 also catches −0
					v = 0
				}
				rows[i][c] = v
				distinct[c][v] = true
			}
		}
		q := QuantizeRows(nil, rows)
		if q.N != n {
			t.Fatalf("N = %d, want %d", q.N, n)
		}
		wantLossless := true
		for _, d := range distinct {
			wantLossless = wantLossless && len(d) <= 256
		}
		if q.Lossless() != wantLossless {
			t.Fatalf("Lossless() = %v, want %v", q.Lossless(), wantLossless)
		}
		buf := make([]float64, dim)
		for i, row := range rows {
			got := q.Row(i, buf)
			for c, v := range row {
				exact := len(distinct[c]) <= 256
				if exact && math.Float64bits(got[c]) != math.Float64bits(v) {
					t.Fatalf("row %d col %d: exact column decoded %v, want %v", i, c, got[c], v)
				}
				if got[c] > v {
					t.Fatalf("row %d col %d: decoded %v above original %v", i, c, got[c], v)
				}
				code := q.codes[c*n+i]
				for j := 0; j < i; j++ {
					cj := q.codes[c*n+j]
					if (rows[j][c] < v && cj > code) || (rows[j][c] > v && cj < code) {
						t.Fatalf("col %d codes not monotone: %v→%d vs %v→%d", c, rows[j][c], cj, v, code)
					}
					if exact && rows[j][c] != v && cj == code {
						t.Fatalf("col %d: exact column shares code %d between %v and %v", c, code, rows[j][c], v)
					}
				}
			}
		}
	})
}
