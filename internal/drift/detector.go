package drift

import (
	"fmt"
	"math"
)

// Verdict is a Detector's escalating judgment after one probe.
type Verdict int

const (
	// None: the incumbent still performs as at reconvergence.
	None Verdict = iota
	// Suspected: recent probes deviate, but not persistently enough yet.
	Suspected
	// Confirmed: the platform has drifted; re-exploration is warranted.
	Confirmed
)

// String renders the verdict for logs and events.
func (v Verdict) String() string {
	switch v {
	case None:
		return "none"
	case Suspected:
		return "suspected"
	case Confirmed:
		return "confirmed"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Detector monitors probe measurements of the incumbent configuration
// against the value it had at (re)convergence. It is the CEAL switch
// detector's residual test repurposed: instead of comparing two models'
// out-of-sample recall, it compares the platform's present against the
// incumbent's past. The trigger is the relative residual
// |probe-baseline|/baseline reaching threshold for confirm consecutive
// probes — robust against a single noisy probe, blind to slow creep below
// the threshold. Not safe for concurrent use; the continuous driver probes
// serially.
type Detector struct {
	threshold float64
	confirm   int
	baseline  float64
	streak    int
}

// NewDetector builds a detector that suspects a probe whose relative
// residual reaches threshold and confirms drift after confirm such probes
// in a row; Reset must be called with a baseline before the first Observe.
func NewDetector(threshold float64, confirm int) *Detector {
	return &Detector{threshold: threshold, confirm: confirm}
}

// Reset re-anchors the detector to a freshly measured incumbent value —
// called after initial convergence and after every re-exploration.
func (d *Detector) Reset(baseline float64) {
	d.baseline = baseline
	d.streak = 0
}

// Baseline returns the anchored incumbent value.
func (d *Detector) Baseline() float64 { return d.baseline }

// Observe folds one probe of the incumbent into the detector and returns
// the verdict plus the probe's signed relative residual.
func (d *Detector) Observe(value float64) (Verdict, float64) {
	residual := 0.0
	if d.baseline != 0 {
		residual = (value - d.baseline) / d.baseline
	}
	if math.Abs(residual) < d.threshold {
		d.streak = 0
		return None, residual
	}
	d.streak++
	if d.streak >= d.confirm {
		return Confirmed, residual
	}
	return Suspected, residual
}
