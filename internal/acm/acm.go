// Package acm implements the analytical coupling model (§4): the
// white-box combination of per-component performance predictions into a
// low-fidelity workflow score. The combining function follows the
// optimization metric — max for bottleneck-determined metrics (execution
// time, Eqn. 1), sum for aggregated metrics (computer time, Eqn. 2), min
// for throughput-style metrics.
package acm

import (
	"fmt"
	"math"
	"sync/atomic"

	"ceal/internal/cfgspace"
	"ceal/internal/score"
)

// Combiner selects the component-combination function.
type Combiner int

const (
	// Max models bottleneck metrics such as execution time (Eqn. 1).
	Max Combiner = iota
	// Sum models aggregated metrics such as computer time (Eqn. 2).
	Sum
	// Min models throughput-style metrics.
	Min
	// Mean is not used by CEAL; it exists for the combiner ablation.
	Mean
	// BottleneckSum models charged-allocation metrics on gang-scheduled
	// machines, where computer time = makespan x total reserved cores: the
	// score is max_j(pred_j / cores_j) * sum_j(cores_j), with pred_j the
	// component's solo computer-time prediction and cores_j its reserved
	// cores (so pred_j/cores_j recovers the component's solo execution
	// time). This refines Eqn. 2 for substrates where components hold
	// their allocation while idling on coupling partners; the combiner
	// ablation compares it against the paper's plain Sum.
	BottleneckSum
)

// String returns the combiner name.
func (c Combiner) String() string {
	switch c {
	case Max:
		return "max"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Mean:
		return "mean"
	case BottleneckSum:
		return "bottleneck-sum"
	default:
		return fmt.Sprintf("Combiner(%d)", int(c))
	}
}

// Combine folds per-component predictions with the combining function.
func (c Combiner) Combine(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	switch c {
	case Max:
		out := math.Inf(-1)
		for _, v := range vs {
			out = math.Max(out, v)
		}
		return out
	case Min:
		out := math.Inf(1)
		for _, v := range vs {
			out = math.Min(out, v)
		}
		return out
	case Sum:
		out := 0.0
		for _, v := range vs {
			out += v
		}
		return out
	case Mean:
		out := 0.0
		for _, v := range vs {
			out += v
		}
		return out / float64(len(vs))
	case BottleneckSum:
		panic("acm: BottleneckSum needs per-part core counts; score through a LowFidelity")
	default:
		panic("acm: unknown combiner")
	}
}

// Predictor is a per-component performance model over rank codes: it
// reads each feature only by comparing its code with cuts of its own,
// counts of the column's values, so it predicts the rows of any coded
// matrix whose columns, from some offset, carry the values it was fitted
// on.
type Predictor interface {
	// Cuts lists, per feature, its cuts ascending and distinct (a feature
	// past the end has none): two rows whose codes are, feature by
	// feature, not below the same number of cuts predict bitwise the same.
	Cuts() [][]uint16
	// PredictRows writes the prediction of each given row of q, whose
	// columns from col are the predictor's features, into out.
	PredictRows(q *score.Codes, col int, rows []int32, out []float64)
}

// ConstPredictor is the model of an unconfigurable component: a single
// measured value.
type ConstPredictor float64

// Cuts returns none: every row predicts the same.
func (ConstPredictor) Cuts() [][]uint16 { return nil }

// PredictRows writes the constant for every row.
func (c ConstPredictor) PredictRows(_ *score.Codes, _ int, rows []int32, out []float64) {
	for i := range rows {
		out[i] = float64(c)
	}
}

// Part is one component's slot in the low-fidelity model: its predictor
// and where its sub-configuration sits inside a workflow configuration.
// Everything a part contributes to a score is a function of that
// sub-configuration alone.
type Part struct {
	Name      string
	Predictor Predictor
	// Lo and Hi bound the component's sub-configuration cfg[Lo:Hi] of a
	// workflow configuration (Lo == Hi for an unconfigurable component).
	Lo, Hi int
	// Cores returns the cores the component's allocation reserves at a
	// sub-configuration. Required by the BottleneckSum combiner.
	Cores func(sub cfgspace.Config) float64
}

// Sub returns the part's sub-configuration of a workflow configuration.
func (part *Part) Sub(cfg cfgspace.Config) cfgspace.Config { return cfg[part.Lo:part.Hi] }

// cores returns the part's reserved cores at a sub-configuration.
func (part *Part) cores(sub cfgspace.Config) float64 {
	if part.Cores == nil {
		panic(fmt.Sprintf("acm: part %s lacks Cores, required by BottleneckSum", part.Name))
	}
	return part.Cores(sub)
}

// LowFidelity is the white-box workflow model M_L of Fig. 3: component
// predictions folded by the combining function. Its output is only a
// relative score for ranking configurations (§4), in the same units as the
// optimization metric. ScoreCodes scores it over a coded feature matrix.
type LowFidelity struct {
	Combine Combiner
	Parts   []Part

	cells atomic.Int64 // cell representatives predicted, over every ScoreCodes call
}

// Cells returns how many cell representatives ScoreCodes calls on lf have
// predicted.
func (lf *LowFidelity) Cells() int64 { return lf.cells.Load() }

// fold combines one configuration's per-part predictions — and, for
// BottleneckSum, per-part reserved cores: max_j(pred_j/cores_j) *
// sum_j(cores_j).
func (lf *LowFidelity) fold(vs, cores []float64) float64 {
	if lf.Combine != BottleneckSum {
		return lf.Combine.Combine(vs)
	}
	maxExec := 0.0
	totalCores := 0.0
	for j, c := range cores {
		if c <= 0 {
			c = 1
		}
		totalCores += c
		if exec := vs[j] / c; exec > maxExec {
			maxExec = exec
		}
	}
	return maxExec * totalCores
}

// ForObjective returns the combining function for an optimization metric:
// max for bottleneck metrics (execution time, Eqn. 1); for aggregate
// charged-allocation metrics (computer time) it returns BottleneckSum, the
// structure-matched refinement of Eqn. 2 for gang-scheduled substrates
// (see the BottleneckSum doc and the combiner ablation).
func ForObjective(aggregate bool) Combiner {
	if aggregate {
		return BottleneckSum
	}
	return Max
}
