package paperexp

import (
	"context"
	"fmt"
	"math/rand/v2"

	"ceal/internal/cluster"
	"ceal/internal/metrics"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// Options sizes an experiment run. The defaults reproduce the paper's
// settings; tests and benches shrink them.
type Options struct {
	Pool             int    // workflow configurations per ground truth (paper: 2000)
	ComponentSamples int    // standalone runs per configurable component (paper: 500)
	Reps             int    // replications per battery (paper: 100; < 1 runs one)
	Seed             uint64 // seeds the ground-truth build and every battery's replications
	Workers          int    // simulation, scoring and replication width (<= 1: serial)
	// Ctx optionally cancels the experiment: it is threaded into the
	// ground-truth build and every battery replication.
	Ctx context.Context
}

// reps is the replication count, at least one.
func (o Options) reps() int { return max(o.Reps, 1) }

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID        string
	Title     string
	Workflows []string // ground truths required ("LV", "HS", "GP")
	Run       func(gts map[string]*GroundTruth, opt Options) ([]*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: parameter spaces of the three target workflows", nil, runTable1},
		{"table2", "Table 2: best vs expert configurations and performance", []string{"LV", "HS", "GP"}, runTable2},
		{"fig4", "Fig. 4: recall of the low-fidelity combination functions (LV, 500 configs)", []string{"LV"}, runFig4},
		{"fig5", "Fig. 5: best configuration auto-tuned without historical measurements", []string{"LV", "HS", "GP"}, runFig5},
		{"fig6", "Fig. 6: model prediction MdAPE, top 2% vs all configurations", []string{"LV", "HS", "GP"}, runFig6},
		{"fig7", "Fig. 7: robustness (recall scores) without historical measurements", []string{"LV", "HS", "GP"}, runFig7},
		{"fig8", "Fig. 8: practicality (least number of uses) without histories", []string{"LV", "HS"}, runFig8},
		{"fig9", "Fig. 9: effect of historical component measurements on CEAL", []string{"LV", "HS", "GP"}, runFig9},
		{"fig10", "Fig. 10: best configuration auto-tuned with histories, CEAL vs ALpH", []string{"LV", "HS", "GP"}, runFig10},
		{"fig11", "Fig. 11: robustness with histories, CEAL vs ALpH", []string{"LV", "HS", "GP"}, runFig11},
		{"fig12", "Fig. 12: practicality with histories, CEAL vs ALpH", []string{"LV", "HS"}, runFig12},
		{"fig13", "Fig. 13: CEAL hyper-parameter sensitivity (LV computer time, 50 samples)", []string{"LV"}, runFig13},
		{"warm", "Warm start: cold vs warm CEAL measurements-to-target, transfer learning from the history DB (all workflows, computer time)", []string{"LV", "HS", "GP"}, runWarm},
		{"ablation", "Ablations: combiner choice, model switch, bias escape, energy objective", []string{"LV"}, runAblations},
		{"drift", "Drift: tune-once vs online retuning cumulative regret under time-varying platform load (all workflows, computer time)", nil, runDrift},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("paperexp: unknown experiment %q", id)
}

// noHistAlgorithms is the §7.4 comparison set.
func noHistAlgorithms() []tuner.Algorithm {
	return []tuner.Algorithm{tuner.RS{}, tuner.NewGEIST(), tuner.NewAL(), tuner.NewCEAL()}
}

// cell is one (workflow, objective, budget) point of the §7 grid.
type cell struct {
	WF     string
	Obj    Objective
	Budget int
}

// String labels the cell as the figures do, e.g. "LV comp (50 spls)".
func (c cell) String() string { return fmt.Sprintf("%s %s (%d spls)", c.WF, c.Obj.Short(), c.Budget) }

// battery runs algs over the cell, with or without component histories.
func (c cell) battery(gts map[string]*GroundTruth, opt Options, withHistory bool, algs ...tuner.Algorithm) ([]*AlgStats, error) {
	return RunBattery(opt, RunSpec{GT: gts[c.WF], Obj: c.Obj, Budget: c.Budget, WithHistory: withHistory, Algorithms: algs})
}

// row appends one formatted column per algorithm to the leading cells.
func row(stats []*AlgStats, format func(*AlgStats) string, lead ...string) []string {
	for _, st := range stats {
		lead = append(lead, format(st))
	}
	return lead
}

// normPerf and medianLNU format the figures' two headline metrics; name
// labels an algorithm's column.
func normPerf(st *AlgStats) string  { return f3(st.MeanNormPerf()) }
func medianLNU(st *AlgStats) string { return f0(st.MedianLNU()) }
func name(st *AlgStats) string      { return st.Name }

// ---------------------------------------------------------------- Table 1

func runTable1(_ map[string]*GroundTruth, opt Options) ([]*Table, error) {
	m := cluster.Default()
	t := &Table{
		Title:  "Table 1: parameter spaces",
		Header: []string{"workflow", "application", "parameter", "options"},
	}
	sizes := &Table{
		Title:  "Configuration-space sizes",
		Header: []string{"workflow", "application", "raw size", "feasible size (est.)"},
	}
	rng := rand.New(rand.NewPCG(opt.Seed, 0x7ab1e))
	for _, b := range workflow.Benchmarks(m) {
		feasibleTotal := 1.0
		for _, cs := range b.Components {
			if cs.Space == nil {
				t.AddRow(b.Name, cs.Name, "# processes", "1 (fixed)")
				continue
			}
			for _, p := range cs.Space.Params {
				opts := fmt.Sprintf("%d, %d, ..., %d", p.Min, p.Min+p.Step, p.Max)
				if p.Count() <= 4 {
					opts = fmt.Sprintf("%d ... %d", p.Min, p.Max)
				}
				t.AddRow(b.Name, cs.Name, p.Name, opts)
			}
			raw := cs.Space.RawSize()
			feasible := raw * cs.Space.ValidFraction(rng, 20000)
			feasibleTotal *= feasible
			sizes.AddRow(b.Name, cs.Name, fmt.Sprintf("%.3g", raw), fmt.Sprintf("%.3g", feasible))
		}
		wfFeasible := b.Space.RawSize() * b.Space.ValidFraction(rng, 20000)
		sizes.AddRow(b.Name, "(coupled workflow)", fmt.Sprintf("%.3g", b.Space.RawSize()), fmt.Sprintf("%.3g", wfFeasible))
	}
	sizes.Notes = append(sizes.Notes,
		"paper sizes: LV 2.9e9 (7.6e4 x 7.6e4), HS 5.1e10 (5.4e6 x 1.9e4), GP 8.5e7 (1.9e4 x 9.0e3)")
	return []*Table{t, sizes}, nil
}

// ---------------------------------------------------------------- Table 2

// paperTable2 holds the paper's reported values for side-by-side reporting.
var paperTable2 = map[string]map[Objective][2]string{
	"LV": {ExecTime: {"24.6 s", "36.8 s"}, CompTime: {"3.13 core-h", "4.07 core-h"}},
	"HS": {ExecTime: {"6.02 s", "28.0 s"}, CompTime: {"0.517 core-h", "0.894 core-h"}},
	"GP": {ExecTime: {"98.7 s", "102 s"}, CompTime: {"6.95 core-h", "5.85 core-h"}},
}

func runTable2(gts map[string]*GroundTruth, _ Options) ([]*Table, error) {
	t := &Table{
		Title:  "Table 2: configurations and performance of benchmarks",
		Header: []string{"wf", "objective", "option", "performance", "configuration", "paper"},
	}
	for _, name := range []string{"LV", "HS", "GP"} {
		gt := gts[name]
		for _, obj := range []Objective{ExecTime, CompTime} {
			unit := "s"
			if obj == CompTime {
				unit = "core-h"
			}
			ref := paperTable2[name][obj]
			t.AddRow(name, obj.Short(), "Best",
				fmt.Sprintf("%.3g %s", gt.Best(obj), unit), gt.BestConfig(obj).String(), ref[0])
			t.AddRow(name, obj.Short(), "Expert",
				fmt.Sprintf("%.3g %s", gt.Expert(obj), unit), gt.Bench.Expert(obj).String(), ref[1])
		}
	}
	t.Notes = append(t.Notes, "Best is over the measured random pool; absolute values differ from the paper (simulated substrate)")
	return []*Table{t}, nil
}

// ------------------------------------------------------------------ Fig 4

func runFig4(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	gt := gts["LV"]
	n := 500
	if n > len(gt.Pool) {
		n = len(gt.Pool)
	}
	subset := gt.Pool[:n]

	t := &Table{
		Title:  fmt.Sprintf("Fig. 4: recall scores of combination-function low-fidelity models (LV, %d configs)", n),
		Header: []string{"top n", "sum (computer time)", "random (computer)", "max (execution time)", "random (exec)"},
	}
	rows := map[int][4]float64{}
	for _, obj := range []Objective{CompTime, ExecTime} {
		p := gt.Problem(opt, obj, true, opt.Seed)
		p.Pool = subset
		scores, err := tuner.LowFidelityScores(p, 0)
		if err != nil {
			return nil, err
		}
		truth := gt.Values(obj)[:n]
		for topN := 1; topN <= 25; topN += 2 {
			r := rows[topN]
			if obj == CompTime {
				r[0] = metrics.RecallScore(topN, scores, truth)
				r[1] = float64(topN) / float64(n) * 100 // expectation of a random ranking
			} else {
				r[2] = metrics.RecallScore(topN, scores, truth)
				r[3] = float64(topN) / float64(n) * 100
			}
			rows[topN] = r
		}
	}
	for topN := 1; topN <= 25; topN += 2 {
		r := rows[topN]
		t.AddRow(fmt.Sprintf("%d", topN), f1(r[0]), f1(r[1]), f1(r[2]), f1(r[3]))
	}
	t.Notes = append(t.Notes, "paper: combination models stay above ~30% for top 2-25; random stays near n/500")
	return []*Table{t}, nil
}

// ------------------------------------------------------------------ Fig 5

// fig5Cells are Fig. 5's panels, two budgets each.
var fig5Cells = []cell{
	{"LV", ExecTime, 50}, {"LV", ExecTime, 100},
	{"LV", CompTime, 25}, {"LV", CompTime, 50},
	{"HS", ExecTime, 50}, {"HS", ExecTime, 100},
	{"HS", CompTime, 25}, {"HS", CompTime, 50},
	{"GP", CompTime, 25}, {"GP", CompTime, 50},
}

func runFig5(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	return normPerfFigure(gts, opt, "Fig. 5", false, fig5Cells, &Table{
		Title: "Fig. 5: normalized performance of the best auto-tuned configuration (no histories; 1 = pool best)",
		Notes: []string{"paper shape: CEAL lowest in every cell; RS/GEIST can exceed 2x on small budgets"},
	})
}

// normPerfFigure fills t (Figs. 5 and 10) with each cell's mean normalized
// performance per algorithm, then adds CEAL's differences from the others.
func normPerfFigure(gts map[string]*GroundTruth, opt Options, fig string, withHistory bool, cells []cell, t *Table) ([]*Table, error) {
	d := diffTable(fig, "CEAL minus each comparator")
	for _, c := range cells {
		stats, err := c.grid(gts, opt, withHistory)
		if err != nil {
			return nil, err
		}
		t.Header = row(stats, name, "wf", "objective", "m")
		t.AddRow(row(stats, normPerf, c.WF, c.Obj.Short(), fmt.Sprintf("%d", c.Budget))...)
		cealDiffs(d, opt.Seed, true, f3, c, "norm. perf", stats, func(st *AlgStats) []float64 { return st.NormPerf })
	}
	return []*Table{t, d}, nil
}

// ------------------------------------------------------------------ Fig 6

func runFig6(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	t := &Table{
		Title:  "Fig. 6: prediction MdAPE (%) of auto-tuning models without histories",
		Header: []string{"cell", "dataset", "RS", "GEIST", "AL", "CEAL"},
	}
	d := diffTable("Fig. 6", "CEAL minus each comparator")
	for _, c := range []cell{{"LV", CompTime, 50}, {"HS", ExecTime, 100}, {"GP", CompTime, 25}} {
		stats, err := c.grid(gts, opt, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(row(stats, func(st *AlgStats) string { return f1(metrics.Mean(st.MdAPETop2)) }, c.String(), "top 2%")...)
		t.AddRow(row(stats, func(st *AlgStats) string { return f1(metrics.Mean(st.MdAPEAll)) }, c.String(), "all")...)
		cealDiffs(d, opt.Seed, true, f1, c, "top-2% MdAPE", stats, func(st *AlgStats) []float64 { return st.MdAPETop2 })
	}
	t.Notes = append(t.Notes, "paper shape: CEAL's top-2% MdAPE is much lower than the others'; over all configs it is comparable or a little higher")
	return []*Table{t, d}, nil
}

// ------------------------------------------------------------------ Fig 7

func runFig7(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	cells := []cell{{"LV", ExecTime, 100}, {"HS", ExecTime, 100}, {"LV", CompTime, 50}, {"GP", CompTime, 50}}
	return recallPanels(gts, opt, "Fig. 7", false, cells)
}

// recallPanels renders one top-n recall table per cell (Figs. 7 and 11),
// then CEAL's top-1 to top-3 recall differences from each comparator.
func recallPanels(gts map[string]*GroundTruth, opt Options, fig string, withHistory bool, cells []cell) ([]*Table, error) {
	histories := "no histories"
	if withHistory {
		histories = "with histories"
	}
	var out []*Table
	d := diffTable(fig, "CEAL minus each comparator")
	for _, c := range cells {
		stats, err := c.grid(gts, opt, withHistory)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:  fmt.Sprintf("%s: recall scores (%%), %s, %s", fig, c, histories),
			Header: row(stats, name, "top n"),
		}
		for n := 1; n <= 9; n++ {
			t.AddRow(row(stats, func(st *AlgStats) string { return f1(st.MeanRecall(n)) }, fmt.Sprintf("%d", n))...)
		}
		out = append(out, t)
		for n := 1; n <= 3; n++ {
			cealDiffs(d, opt.Seed, false, f1, c, fmt.Sprintf("top-%d recall", n), stats, func(st *AlgStats) []float64 { return st.Recall[n-1] })
		}
	}
	return append(out, d), nil
}

// ------------------------------------------------------------------ Fig 8

func runFig8(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	t := &Table{
		Title:  "Fig. 8: practicality without histories — least number of uses (computer time, 50 samples)",
		Header: []string{"wf", "AL", "CEAL"},
	}
	for _, wf := range []string{"LV", "HS"} {
		stats, err := cell{wf, CompTime, 50}.grid(gts, opt, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(row([]*AlgStats{byName(stats, "AL"), byName(stats, "CEAL")}, medianLNU, wf)...)
	}
	t.Notes = append(t.Notes,
		"median over replications; paper (means): LV 782 (AL) vs 716 (CEAL)",
		"RS/GEIST are omitted as in the paper: with 25-50 samples they do not beat the expert configuration")
	return []*Table{t}, nil
}

// ------------------------------------------------------------------ Fig 9

// fig9Cells are the panels of Figs. 9 and 10, two budgets each.
var fig9Cells = []cell{
	{"LV", ExecTime, 50}, {"LV", ExecTime, 100},
	{"HS", ExecTime, 50}, {"HS", ExecTime, 100},
	{"LV", CompTime, 25}, {"LV", CompTime, 50},
	{"HS", CompTime, 25}, {"HS", CompTime, 50},
	{"GP", CompTime, 25}, {"GP", CompTime, 50},
}

func runFig9(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	t := &Table{
		Title:  "Fig. 9: CEAL with vs without historical component measurements (normalized best config)",
		Header: []string{"wf", "objective", "m", "CEAL w/o histories", "CEAL w/ histories"},
	}
	d := diffTable("Fig. 9", "CEAL with minus without histories")
	for _, c := range fig9Cells {
		noHist, err := c.grid(gts, opt, false)
		if err != nil {
			return nil, err
		}
		hist, err := c.grid(gts, opt, true)
		if err != nil {
			return nil, err
		}
		without, with := byName(noHist, "CEAL"), byName(hist, "CEAL")
		t.AddRow(c.WF, c.Obj.Short(), fmt.Sprintf("%d", c.Budget), normPerf(without), normPerf(with))
		addDiff(d, opt.Seed, true, f3, c, "norm. perf", "w/ - w/o histories", with.NormPerf, without.NormPerf)
	}
	t.Notes = append(t.Notes, "paper shape: histories help in most cells (e.g. 25-sample computer time: LV -7.8%, HS -38.9%, GP -6.6%)")
	return []*Table{t, d}, nil
}

// ----------------------------------------------------------------- Fig 10

func runFig10(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	return normPerfFigure(gts, opt, "Fig. 10", true, fig9Cells, &Table{
		Title: "Fig. 10: best configuration auto-tuned with histories (normalized)",
		Notes: []string{"paper shape: CEAL below ALpH in every cell (white-box combining beats learned combining)"},
	})
}

// ----------------------------------------------------------------- Fig 11

func runFig11(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	cells := []cell{{"LV", ExecTime, 50}, {"HS", ExecTime, 50}, {"LV", CompTime, 25}, {"GP", CompTime, 25}}
	return recallPanels(gts, opt, "Fig. 11", true, cells)
}

// ----------------------------------------------------------------- Fig 12

func runFig12(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	lnuTable := func(title string, cells ...cell) (*Table, error) {
		t := &Table{Title: title, Header: []string{"cell", "CEAL", "ALpH"}}
		for _, c := range cells {
			stats, err := c.grid(gts, opt, true)
			if err != nil {
				return nil, err
			}
			t.AddRow(row(stats, medianLNU, fmt.Sprintf("%s (%d spls)", c.WF, c.Budget))...)
		}
		return t, nil
	}
	ta, err := lnuTable("Fig. 12a: least number of uses with histories, execution time",
		cell{"LV", ExecTime, 50}, cell{"HS", ExecTime, 100})
	if err != nil {
		return nil, err
	}
	tb, err := lnuTable("Fig. 12b: least number of uses with histories, computer time",
		cell{"LV", CompTime, 25}, cell{"LV", CompTime, 50}, cell{"HS", CompTime, 25}, cell{"HS", CompTime, 50})
	if err != nil {
		return nil, err
	}
	ta.Notes = append(ta.Notes, "paper: CEAL LV exec (50 spls) recoups after 164 runs; ALpH HS exec reaches 16501")
	return []*Table{ta, tb}, nil
}

// ----------------------------------------------------------------- Fig 13

func runFig13(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	gt := gts["LV"]
	const budget = 50

	run := func(o tuner.CEALOptions, withHist bool) (float64, error) {
		stats, err := cell{"LV", CompTime, budget}.battery(gts, opt, withHist, &tuner.CEAL{Opts: &o})
		if err != nil {
			return 0, err
		}
		// Fig. 13 plots absolute computer time of the predicted best.
		return stats[0].MeanNormPerf() * gt.Best(CompTime), nil
	}

	ta := &Table{
		Title:  "Fig. 13a: computer time vs iterations I (LV, 50 samples)",
		Header: []string{"I", "CEAL w/o hist (m0=0.05m, mR=0.8m)", "CEAL w/ hist (m0=0.15m, mR=0)"},
	}
	for i := 1; i <= 10; i++ {
		vNo, err := run(tuner.CEALOptions{Iterations: i, RandomFrac: 0.05, ComponentFrac: 0.8}, false)
		if err != nil {
			return nil, err
		}
		vYes, err := run(tuner.CEALOptions{Iterations: i, RandomFrac: 0.15}, true)
		if err != nil {
			return nil, err
		}
		ta.AddRow(fmt.Sprintf("%d", i), f2(vNo), f2(vYes))
	}

	tb := &Table{
		Title:  "Fig. 13b: computer time vs random-sample share m0/m (LV, 50 samples)",
		Header: []string{"m0/m (%)", "CEAL w/o hist (I=8, mR=0.8m)", "CEAL w/ hist (I=3, mR=0)"},
	}
	for pct := 5; pct <= 95; pct += 10 {
		frac := float64(pct) / 100
		noCell := "-"
		if frac <= 0.2 { // w/o histories only m - mR is available for random samples
			v, err := run(tuner.CEALOptions{Iterations: 8, RandomFrac: frac, ComponentFrac: 0.8}, false)
			if err != nil {
				return nil, err
			}
			noCell = f2(v)
		}
		v, err := run(tuner.CEALOptions{Iterations: 3, RandomFrac: frac}, true)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%d", pct), noCell, f2(v))
	}

	tc := &Table{
		Title:  "Fig. 13c: computer time vs component-run share mR/m (LV, 50 samples, no histories)",
		Header: []string{"mR/m (%)", "CEAL w/o hist (I=8, m0=0.05m)"},
	}
	for pct := 5; pct <= 85; pct += 10 {
		v, err := run(tuner.CEALOptions{Iterations: 8, RandomFrac: 0.05, ComponentFrac: float64(pct) / 100}, false)
		if err != nil {
			return nil, err
		}
		tc.AddRow(fmt.Sprintf("%d", pct), f2(v))
	}
	ta.Notes = append(ta.Notes, "paper shape: converges by ~8 iterations w/o histories, faster with; stable over wide m0 and mR ranges")
	return []*Table{ta, tb, tc}, nil
}
