package workflow

import (
	"fmt"
	"math"
	"strings"
)

// StepTrace is one component's timing breakdown for one coupling step.
type StepTrace struct {
	Step    int
	Wait    float64 // blocked on upstream data (rendezvous)
	Compute float64 // the step's computation
	Output  float64 // PFS writes plus emitting (including backpressure)
}

// ComponentTrace is one component's full timeline.
type ComponentTrace struct {
	Name  string
	Nodes int
	Steps []StepTrace
}

// Totals sums the phase durations across steps.
func (ct *ComponentTrace) Totals() (wait, compute, output float64) {
	for _, s := range ct.Steps {
		wait += s.Wait
		compute += s.Compute
		output += s.Output
	}
	return
}

// Trace is a full in-situ run timeline.
type Trace struct {
	Components []ComponentTrace
	Makespan   float64
}

// String renders a compact utilization report: per component, the share
// of its wall time spent waiting, computing, and emitting, with a bar.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "in-situ timeline (makespan %.3f s)\n", t.Makespan)
	for _, ct := range t.Components {
		wait, compute, output := ct.Totals()
		total := wait + compute + output
		if total <= 0 {
			total = 1
		}
		bar := phaseBar(wait/total, compute/total, 40)
		fmt.Fprintf(&b, "  %-12s %2d node(s)  wait %5.1f%%  compute %5.1f%%  output %5.1f%%  |%s|\n",
			ct.Name, ct.Nodes, wait/total*100, compute/total*100, output/total*100, bar)
	}
	return b.String()
}

// phaseBar draws waits as '.', compute as '#', output as '+'.
func phaseBar(waitFrac, computeFrac float64, width int) string {
	w := int(math.Round(waitFrac * float64(width)))
	c := int(math.Round(computeFrac * float64(width)))
	if w+c > width {
		c = width - w
	}
	return strings.Repeat(".", w) + strings.Repeat("#", c) + strings.Repeat("+", width-w-c)
}

// RunInSituTraced is RunInSitu that also returns the per-step phase
// timeline, for diagnosis (wfsim -trace). It is the same run: the
// measurement is identical to RunInSitu's.
func (w *Workflow) RunInSituTraced() (Measurement, *Trace, error) {
	trace := &Trace{}
	meas, err := w.runInSitu(trace)
	if err != nil {
		return Measurement{}, nil, err
	}
	return meas, trace, nil
}
