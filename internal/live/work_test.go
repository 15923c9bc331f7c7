package live

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
	"ceal/internal/workflow"
)

// phaseTally is a PhaseObserver that sums a run's phase spans by phase.
type phaseTally struct {
	spans map[string]int
	work  map[string]events.Work
}

func (p *phaseTally) OnEvent(events.Event) {}

func (p *phaseTally) OnPhase(ph *events.Phase) {
	p.spans[ph.Phase]++
	p.work[ph.Phase] = p.work[ph.Phase].Add(ph.Work)
}

// String lists the tally by phase, with its spans and non-zero counts, as
// workCounts holds it.
func (p *phaseTally) String() string {
	names := make([]string, 0, len(p.spans))
	for name := range p.spans {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		w := p.work[name]
		fmt.Fprintf(&b, "%s %d", name, p.spans[name])
		for _, c := range []struct {
			name string
			n    int64
		}{
			{"nodes", w.TreeNodes}, {"abandoned", w.RowsAbandoned}, {"splits", w.SplitsScanned}, {"draws", w.Draws},
			{"rejections", w.Rejections}, {"events", w.SimEvents}, {"cells", w.Cells}, {"distances", w.Distances},
		} {
			if c.n != 0 {
				fmt.Fprintf(&b, " %s=%d", c.name, c.n)
			}
		}
		b.WriteString("; ")
	}
	return b.String()
}

// workCounts pins the phase spans and work counts of a paper-scale CEAL
// run (pool 2000, budget 50, seed 1, computer time) on each benchmark at 1
// and at 4 workers. Only the coded walk's counts depend on the worker
// count: the selector's cut-off is per chunk. A change that moves a count
// on purpose regenerates the table from the failure message.
var workCounts = map[string]string{
	"GP/1": "bootstrap 1 splits=27663 draws=38 rejections=8 events=4732; finish 1; fit 8 nodes=900 splits=361333 cells=4; measure 8 events=31138; select 8 nodes=370380 abandoned=11618 cells=562; ",
	"GP/4": "bootstrap 1 splits=27663 draws=38 rejections=8 events=4732; finish 1; fit 8 nodes=900 splits=361333 cells=4; measure 8 events=31138; select 8 nodes=652500 abandoned=11174 cells=562; ",
	"HS/1": "bootstrap 1 splits=45433 draws=42 rejections=12 events=5582; finish 1; fit 8 nodes=4800 splits=588104 cells=21; measure 8 events=23314; select 8 nodes=343344 abandoned=7785 cells=1802; ",
	"HS/4": "bootstrap 1 splits=45433 draws=42 rejections=12 events=5582; finish 1; fit 8 nodes=4800 splits=588104 cells=21; measure 8 events=23314; select 8 nodes=551764 abandoned=7441 cells=1802; ",
	"LV/1": "bootstrap 1 splits=47410 draws=66 rejections=36 events=3030; finish 1; fit 8 nodes=1200 splits=574992 cells=6; measure 8 events=9953; select 8 nodes=622088 abandoned=11721 cells=1115; ",
	"LV/4": "bootstrap 1 splits=47410 draws=66 rejections=36 events=3030; finish 1; fit 8 nodes=1200 splits=574992 cells=6; measure 8 events=9953; select 8 nodes=1014448 abandoned=11221 cells=1115; ",
}

// TestWorkCountsPinned holds the work counts of one paper-scale CEAL run
// on LV, HS and GP exactly, at 1 and at 4 workers.
func TestWorkCountsPinned(t *testing.T) {
	got := map[string]string{}
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		for _, workers := range []int{1, 4} {
			p := NewProblem(b, workflow.CompTime, 2000, 1)
			if workers > 1 {
				p.Runner, p.Workers = dispatch.NewRunner(workers), workers
			}
			tally := &phaseTally{spans: map[string]int{}, work: map[string]events.Work{}}
			p.Observer = tally
			if _, err := tuner.NewCEAL().Tune(p, 50); err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%d", b.Name, workers)] = tally.String()
		}
	}
	for key, counts := range got {
		if counts != workCounts[key] {
			t.Errorf("%s: work counts\n%s\nwant\n%s", key, counts, workCounts[key])
		}
	}
	if t.Failed() {
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var table strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&table, "\t%q: %q,\n", key, got[key])
		}
		t.Logf("the table as measured:\n%s", table.String())
	}
}
