package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of compare for one (workload, metric) cell.
const (
	Better     = "better"
	Worse      = "worse"
	Same       = "same"
	Unresolved = "unresolved"
)

// Judge compares candidate values b against baseline values a for a gated
// metric. The candidate is worse (better) when its median is past the
// baseline's by more than the bound; when the baseline's own runs spread
// (interquartile range over median) wider than the bound, a difference
// past the bound is unresolved unless every candidate run lies on one side
// of every baseline run.
func Judge(m Metric, a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return Same
		}
		return Unresolved
	}
	delta := (mb - ma) / ma // > 0: the candidate reads higher
	if m.Better == "higher" {
		delta = -delta
	}
	if delta <= m.Bound && delta >= -m.Bound {
		return Same
	}
	verdict := Worse
	if delta < 0 {
		verdict = Better
	}
	spread := (quantile(a, 0.75) - quantile(a, 0.25)) / ma
	if spread > m.Bound && !separated(a, b) {
		return Unresolved
	}
	return verdict
}

// separated reports whether every value of one side lies beyond every
// value of the other.
func separated(a, b []float64) bool {
	return quantile(a, 1) < quantile(b, 0) || quantile(b, 1) < quantile(a, 0)
}

func readLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// compareMain prints, one block per workload, every gated cell of ledger
// B against ledger A with its verdict. Exit 1 when any cell is worse or
// any check failed in B.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: ceal-bench compare A.json B.json")
		return 2
	}
	a, err := readLedger(args[0])
	if err == nil {
		var b *Ledger
		if b, err = readLedger(args[1]); err == nil {
			return compareLedgers(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "ceal-bench:", err)
	return 1
}

func compareLedgers(a, b *Ledger, stdout io.Writer) int {
	fmt.Fprintf(stdout, "A: %s seed %d x%d    B: %s seed %d x%d\n", a.GitSHA, a.Seed, a.Reps, b.GitSHA, b.Seed, b.Reps)
	code := 0
	byName := map[string]LedgerWorkload{}
	for _, w := range a.Workloads {
		byName[w.Name] = w
	}
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "\n%s\n", wb.Name)
		tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tA\tB\tchange\tbound\tverdict\t")
		for _, m := range Catalog {
			ca, okA := wa.Cells[m.Name]
			cb, okB := wb.Cells[m.Name]
			if m.Bound == 0 || !okA || !okB {
				continue
			}
			v := Judge(m, ca.Values, cb.Values)
			if v == Worse {
				code = 1
			}
			change := 0.0
			if ca.Median != 0 {
				change = (cb.Median/ca.Median - 1) * 100
			}
			fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\t\n", m.Name, ca.Median, cb.Median, change, m.Bound*100, v)
		}
		fa, fb := wa.Cells[FailRatio].Median, wb.Cells[FailRatio].Median
		v := Same
		if fb > 0 {
			v, code = Worse, 1
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t\t0\t%s\t\n", FailRatio, fa, fb, v)
		tw.Flush()
	}
	return code
}
