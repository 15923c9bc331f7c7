package paperexp

import (
	"fmt"

	"ceal/internal/acm"
	"ceal/internal/metrics"
	"ceal/internal/tuner"
)

// runAblations validates CEAL's design choices beyond the paper's figures:
// the combining-function choice (§4), the model-switch detector and bias
// escape (Alg. 1), the energy objective, and two model diagnostics.
func runAblations(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	gt := gts["LV"]
	lv50 := cell{"LV", CompTime, 50} // no histories
	var out []*Table

	// (1) Combiner ablation: recall of the low-fidelity model built with
	// each combining function, for both objectives.
	comb := &Table{
		Title:  "Ablation: combining function of the low-fidelity model (LV, top-10 recall %)",
		Header: []string{"objective", "max", "sum", "bottleneck-sum", "mean", "min"},
	}
	n := 500
	if n > len(gt.Pool) {
		n = len(gt.Pool)
	}
	for _, obj := range []Objective{ExecTime, CompTime, Energy} {
		row := []string{obj.Short()}
		for _, c := range []acm.Combiner{acm.Max, acm.Sum, acm.BottleneckSum, acm.Mean, acm.Min} {
			p := gt.Problem(opt, obj, true, opt.Seed)
			p.Combiner, p.Pool = c, gt.Pool[:n]
			scores, err := tuner.LowFidelityScores(p, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, f1(metrics.RecallScore(10, scores, gt.Values(obj)[:n])))
		}
		comb.AddRow(row...)
	}
	comb.Notes = append(comb.Notes,
		"the paper prescribes max for execution time (Eqn. 1) and plain sum for aggregate metrics (Eqn. 2)",
		"on this gang-scheduled substrate the bottleneck-scaled aggregate replaces the plain sum (DESIGN.md §5.1)")
	out = append(out, comb)

	// (2) Model-switch and bias-escape ablations (no histories).
	full := tuner.DefaultCEALOptions(false)
	noSwitch := full
	noSwitch.DisableSwitch = true
	noEscape := full
	noEscape.DisableBiasEscape = true
	sw := &Table{
		Title:  "Ablation: CEAL control mechanisms (LV computer time, 50 samples, normalized best)",
		Header: []string{"variant", "normalized computer time"},
	}
	for _, v := range []struct {
		name string
		opts tuner.CEALOptions
	}{
		{"CEAL (full)", full},
		{"no model switch", noSwitch},
		{"no bias escape", noEscape},
	} {
		o := v.opts
		stats, err := lv50.battery(gts, opt, false, &tuner.CEAL{Opts: &o})
		if err != nil {
			return nil, err
		}
		sw.AddRow(v.name, normPerf(stats[0]))
	}
	out = append(out, sw)

	// (3) Energy objective (extension): the framework tunes the §4
	// aggregate-metric example end to end.
	energy := &Table{
		Title:  "Extension: tuning energy consumption (LV, 25 samples, normalized best; 1 = pool best)",
		Header: []string{"algorithm", "normalized energy"},
	}
	energyStats, err := cell{"LV", Energy, 25}.battery(gts, opt, false, tuner.RS{}, tuner.NewAL(), tuner.NewCEAL())
	if err != nil {
		return nil, err
	}
	for _, st := range energyStats {
		energy.AddRow(st.Name, normPerf(st))
	}
	out = append(out, energy)

	// (4) Model-quality diagnostics: rank correlation of each algorithm's
	// final pool scores with the measured truth (complements Fig. 6's
	// MdAPE: Spearman is invariant to the log-scale calibration errors
	// that inflate MdAPE).
	sp := &Table{
		Title:  "Diagnostics: final-model Spearman rank correlation with truth (LV computer time, 50 samples)",
		Header: []string{"algorithm", "mean Spearman"},
	}
	spStats, err := lv50.grid(gts, opt, false)
	if err != nil {
		return nil, err
	}
	for _, st := range spStats {
		sp.AddRow(st.Name, f3(metrics.Mean(st.Spearman)))
	}
	sp.Notes = append(sp.Notes, "RS/AL see broad samples and rank the whole pool better; CEAL concentrates accuracy on the top (Fig. 6/7)")
	out = append(out, sp)

	// (5) CEAL model-switch timing: how often and when the detector fires.
	swi := &Table{
		Title:  "Diagnostics: CEAL model-switch iteration distribution (LV computer time, 50 samples)",
		Header: []string{"switch iteration", "share of replications (%)"},
	}
	switches := spStats[len(spStats)-1].SwitchIter // CEAL's, from (4)
	counts := map[int]int{}
	for _, it := range switches {
		counts[it]++
	}
	total := len(switches)
	for it := -1; it <= 10; it++ {
		if c, ok := counts[it]; ok {
			label := fmt.Sprintf("%d", it)
			if it == -1 {
				label = "never"
			}
			swi.AddRow(label, f1(float64(c)/float64(total)*100))
		}
	}
	out = append(out, swi)
	return out, nil
}
