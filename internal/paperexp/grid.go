package paperexp

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"ceal/internal/metrics"
	"ceal/internal/tuner"
)

// gridKey names one battery of the §7 grid over a ground truth; no result
// depends on Options.Workers.
type gridKey struct {
	obj         Objective
	budget      int
	withHistory bool
	reps        int
	seed        uint64
}

// grid returns the cell's §7 battery over its family's algorithms: the
// §7.4 set without histories, CEAL and ALpH (§7.5) with them. An
// algorithm's statistics depend only on its own runs, so Figs. 5–12 share
// one battery per cell and ground truth. A failed battery is not kept.
func (c cell) grid(gts map[string]*GroundTruth, opt Options, withHistory bool) ([]*AlgStats, error) {
	gt := gts[c.WF]
	key := gridKey{c.Obj, c.Budget, withHistory, opt.reps(), opt.Seed}
	gt.gridMu.Lock()
	defer gt.gridMu.Unlock()
	if stats, ok := gt.grid[key]; ok {
		return stats, nil
	}
	algs := noHistAlgorithms()
	if withHistory {
		algs = []tuner.Algorithm{tuner.NewCEAL(), tuner.NewALpH()}
	}
	stats, err := c.battery(gts, opt, withHistory, algs...)
	if err == nil {
		gt.grid[key] = stats
	}
	return stats, err
}

// byName returns the named algorithm's statistics from a battery.
func byName(stats []*AlgStats, name string) *AlgStats {
	return stats[slices.IndexFunc(stats, func(st *AlgStats) bool { return st.Name == name })]
}

// bootstrapResamples is B, the paired bootstrap's resample count.
const bootstrapResamples = 2000

// diffTable starts a figure's table of paired differences.
func diffTable(fig, what string) *Table {
	return &Table{
		Title: fmt.Sprintf("%s differences: %s (paired bootstrap over replications, B = %d, 95%% percentile interval)",
			fig, what, bootstrapResamples),
		Header: []string{"cell", "metric", "difference", "mean", "95% interval", "verdict"},
		Notes:  []string{"verdict: better or worse when the interval excludes 0 on that side, tied when it contains 0"},
	}
}

// cealDiffs appends CEAL minus each other algorithm of a battery, on the
// per-replication values of one metric.
func cealDiffs(t *Table, seed uint64, lowerBetter bool, format func(float64) string, c cell, metric string, stats []*AlgStats, values func(*AlgStats) []float64) {
	ceal := byName(stats, "CEAL")
	for _, st := range stats {
		if st != ceal {
			addDiff(t, seed, lowerBetter, format, c, metric, "CEAL - "+st.Name, values(ceal), values(st))
		}
	}
}

// addDiff appends the row for a minus b, paired by replication: the mean
// difference, its percentile interval over B resamples of the replication
// indices (seeded from the battery seed and the row), and a verdict for a
// metric where lower is better (lowerBetter) or higher is.
func addDiff(t *Table, seed uint64, lowerBetter bool, format func(float64) string, c cell, metric, label string, a, b []float64) {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	rng := rand.New(rand.NewPCG(seed, uint64(len(t.Rows))))
	means := make([]float64, bootstrapResamples)
	for k := range means {
		sum := 0.0
		for range d {
			sum += d[rng.IntN(len(d))]
		}
		means[k] = sum / float64(len(d))
	}
	slices.Sort(means)
	tail := bootstrapResamples / 40 // 2.5% on each side
	lo, hi := means[tail], means[bootstrapResamples-1-tail]
	verdict := "tied"
	if lo > 0 || hi < 0 {
		verdict = "worse"
		if (hi < 0) == lowerBetter {
			verdict = "better"
		}
	}
	t.AddRow(c.String(), metric, label, format(metrics.Mean(d)), "["+format(lo)+", "+format(hi)+"]", verdict)
}
