//go:build !race

package tuner

import (
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
)

// TestLowFidelityPoolAllocs guards the M_L pool pass over the shared pool
// codes: bucket tables, cell numbering and one prediction a cell allocate
// per part, chunk and cell, never per pool row, so a pass over 100k rows
// allocates what one over 2k does, give or take the growth of its cell
// tables. Under BottleneckSum every row also reads each part's cores.
func TestLowFidelityPoolAllocs(t *testing.T) {
	for _, comb := range []acm.Combiner{acm.Max, acm.BottleneckSum} {
		allocs := map[int]float64{}
		for _, n := range []int{2000, 100_000} {
			p := synthProblem(5, n)
			p.Workers = 2
			p.Combiner = comb
			for j := range p.Components {
				p.Components[j].Cores = func(sub cfgspace.Config) float64 { return float64(sub[0] * sub[1]) }
			}
			cm, err := trainComponentModels(p, 15, newTestRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			e, spans := p.engine(), p.spans()
			q, err := p.poolCodes(p.Pool)
			if err != nil {
				t.Fatal(err)
			}
			allocs[n] = testing.AllocsPerRun(5, func() { cm.lowFi.ScoreCodes(e, q, spans, p.Pool) })
		}
		if small, large := allocs[2000], allocs[100_000]; large > small+16 {
			t.Errorf("%v: M_L pool pass allocates %.0f times over 2k rows and %.0f over 100k, want at most 16 more", comb, small, large)
		}
	}
}
