package paperexp

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// diffRow is one row of a checked-in difference table.
type diffRow struct{ fig, cell, metric, diff, verdict string }

// readDiffRows parses every difference table of a results file.
func readDiffRows(t *testing.T, path string) []diffRow {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gap := regexp.MustCompile(`\s{2,}`)
	var rows []diffRow
	fig := ""
	for _, line := range strings.Split(string(data), "\n") {
		if f, _, ok := strings.Cut(line, " differences: "); ok {
			fig = f
			continue
		}
		if line == "" {
			fig = ""
		}
		cells := gap.Split(strings.TrimSpace(line), -1)
		if fig == "" || len(cells) != 6 || cells[0] == "cell" {
			continue // outside a difference table, or its header, rules and notes
		}
		rows = append(rows, diffRow{fig, cells[0], cells[1], cells[2], cells[5]})
	}
	return rows
}

// readColumn returns the last column of a results table's rows, keyed by
// its first (the workflow), for rows that lead with LV, HS or GP.
func readColumn(t *testing.T, path string) [][2]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]string
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && (f[0] == "LV" || f[0] == "HS" || f[0] == "GP") {
			out = append(out, [2]string{f[0], f[len(f)-1]})
		}
	}
	return out
}

// TestShapeClaims holds the paper's shape claims against the checked-in
// results: every claim is decided by the difference tables' verdicts (a
// paired bootstrap over the 100 replications), by the warm-start speedups,
// or by the drift table's win column. The rules were fixed before the
// results were seen. A claim that fails is listed as a named expected
// failure with its reason (and one sentence in EXPERIMENTS.md), never
// loosened; an expected failure that starts to hold fails the test, so the
// list can only shrink by promoting it back to a claim.
func TestShapeClaims(t *testing.T) {
	rows := readDiffRows(t, "../../results/table1-fig12-reps100.txt")
	// sel returns the rows of fig whose cell, metric and difference match
	// (an empty string matches any), and fails unless there are want.
	sel := func(fig, cell, metric, diff string, want int) []diffRow {
		t.Helper()
		var out []diffRow
		for _, r := range rows {
			if r.fig == fig && (cell == "" || r.cell == cell) && (metric == "" || r.metric == metric) && (diff == "" || r.diff == diff) {
				out = append(out, r)
			}
		}
		if len(out) != want {
			t.Fatalf("%s %q %q %q: %d difference rows, want %d", fig, cell, metric, diff, len(out), want)
		}
		return out
	}
	// count tallies the rows with the given verdict.
	count := func(rs []diffRow, verdict string) int {
		n := 0
		for _, r := range rs {
			if r.verdict == verdict {
				n++
			}
		}
		return n
	}
	// never fails if any row is worse; atLeast if fewer than n are better.
	never := func(rs []diffRow) error {
		for _, r := range rs {
			if r.verdict == "worse" {
				return fmt.Errorf("%s: %s is worse", r.cell, r.diff)
			}
		}
		return nil
	}
	atLeast := func(n int, rs []diffRow) error {
		if got := count(rs, "better"); got < n {
			return fmt.Errorf("better in %d of %d rows, want at least %d", got, len(rs), n)
		}
		return nil
	}
	fig5 := func(comparator string) func() error {
		return func() error {
			rs := sel("Fig. 5", "", "norm. perf", "CEAL - "+comparator, 10)
			if err := never(rs); err != nil {
				return err
			}
			return atLeast(8, rs)
		}
	}

	claims := []struct {
		name  string
		holds func() error
		// expected, when set, names a claim that does not reproduce and why.
		expected string
	}{
		{"Fig. 5: CEAL is never worse than RS, and better in >= 8 of 10 cells", fig5("RS"), ""},
		{"Fig. 5: CEAL is never worse than GEIST, and better in >= 8 of 10 cells", fig5("GEIST"), ""},
		{"Fig. 9: adding histories is never worse", func() error {
			return never(sel("Fig. 9", "", "norm. perf", "w/ - w/o histories", 10))
		}, ""},
		{"Fig. 10: CEAL is never worse than ALpH", func() error {
			return never(sel("Fig. 10", "", "norm. perf", "CEAL - ALpH", 10))
		}, ""},
		{"Fig. 11: CEAL's top-1 recall is never worse than ALpH's", func() error {
			return never(sel("Fig. 11", "", "top-1 recall", "CEAL - ALpH", 4))
		}, ""},
		{"Fig. 6: on LV comp (50 spls), CEAL's top-2% MdAPE is better than each comparator's", func() error {
			return atLeast(3, sel("Fig. 6", "LV comp (50 spls)", "top-2% MdAPE", "", 3))
		}, "every algorithm's model misjudges the values of LV's computer-time top 2% " +
			"(mean top-2% MdAPE 77-128%); CEAL ties RS and is worse than GEIST on them, " +
			"yet its Fig. 7 top-2 and top-3 recall on the same cell beat all three: " +
			"it orders those configurations without estimating their values"},
		{"Fig. 7: on HS exec (100 spls), CEAL's top-2 recall is not worse than any comparator's", func() error {
			return never(sel("Fig. 7", "HS exec (100 spls)", "top-2 recall", "", 3))
		}, ""},
		{"Warm: warm start is faster than cold for LV, HS and GP", func() error {
			speedups := readColumn(t, "../../results/warm-reps25.txt")
			if len(speedups) != 3 {
				t.Fatalf("warm: %d rows, want 3", len(speedups))
			}
			for _, s := range speedups {
				v, err := strconv.ParseFloat(strings.TrimSuffix(s[1], "x"), 64)
				if err != nil {
					t.Fatalf("warm %s: %v", s[0], err)
				}
				if v <= 1 {
					return fmt.Errorf("%s speedup %s", s[0], s[1])
				}
			}
			return nil
		}, ""},
		{"Drift: online retuning wins in >= 12 of 15 rows", func() error {
			wins := readColumn(t, "../../results/drift-reps3.txt")
			if len(wins) != 15 {
				t.Fatalf("drift: %d rows, want 15", len(wins))
			}
			n := 0
			for _, w := range wins {
				if w[1] == "yes" {
					n++
				}
			}
			if n < 12 {
				return fmt.Errorf("online wins %d of 15", n)
			}
			return nil
		}, ""},
	}
	for _, c := range claims {
		err := c.holds()
		switch {
		case c.expected == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.expected != "" && err == nil:
			t.Errorf("%s now holds, but is listed as an expected failure (%s): make it a claim", c.name, c.expected)
		}
	}
}
