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
		panic("acm: BottleneckSum needs per-part core counts; use LowFidelity.Score")
	default:
		panic("acm: unknown combiner")
	}
}

// Predictor is any per-component performance model.
type Predictor interface {
	Predict(x []float64) float64
}

// CellPredictor is a Predictor that says which feature vectors it cannot
// tell apart: Cell writes x's key (len(key) == len(x)), vectors with equal
// keys predict bitwise the same, and PredictBatch is Predict on every row.
type CellPredictor interface {
	Predictor
	Cell(x []float64, key []int)
	PredictBatch(X [][]float64, out []float64)
}

// ConstPredictor is the model of an unconfigurable component: a single
// measured value.
type ConstPredictor float64

// Predict returns the constant value.
func (c ConstPredictor) Predict([]float64) float64 { return float64(c) }

// Part is one component's slot in the low-fidelity model: its predictor
// and where its sub-configuration sits inside a workflow configuration.
// Everything a part contributes to a score is a function of that
// sub-configuration alone, which is what lets ScoreBatchOn evaluate each
// distinct sub-configuration once.
type Part struct {
	Name      string
	Predictor Predictor
	// Lo and Hi bound the component's sub-configuration cfg[Lo:Hi] of a
	// workflow configuration (Lo == Hi for an unconfigurable component).
	Lo, Hi int
	// Features maps the sub-configuration to the predictor's feature
	// vector; nil passes the predictor nil (unconfigurable components).
	Features func(sub cfgspace.Config) []float64
	// Cores returns the cores the component's allocation reserves at a
	// sub-configuration. Required by the BottleneckSum combiner.
	Cores func(sub cfgspace.Config) float64
}

// Sub returns the part's sub-configuration of a workflow configuration.
func (part *Part) Sub(cfg cfgspace.Config) cfgspace.Config { return cfg[part.Lo:part.Hi] }

// Predict returns the part's prediction at a sub-configuration.
func (part *Part) Predict(sub cfgspace.Config) float64 {
	var x []float64
	if part.Features != nil {
		x = part.Features(sub)
	}
	return part.Predictor.Predict(x)
}

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
// optimization metric.
type LowFidelity struct {
	Combine Combiner
	Parts   []Part
}

// Score returns the combined prediction for a workflow configuration.
func (lf *LowFidelity) Score(cfg cfgspace.Config) float64 {
	vs := make([]float64, len(lf.Parts))
	var cores []float64
	if lf.Combine == BottleneckSum {
		cores = make([]float64, len(lf.Parts))
	}
	for j := range lf.Parts {
		part := &lf.Parts[j]
		vs[j] = part.Predict(part.Sub(cfg))
		if cores != nil {
			cores[j] = part.cores(part.Sub(cfg))
		}
	}
	return lf.fold(vs, cores)
}

// fold combines one configuration's per-part predictions — and, for
// BottleneckSum, per-part reserved cores: max_j(pred_j/cores_j) *
// sum_j(cores_j). Score and ScoreBatchOn both end here, so the
// per-configuration and the factored score are the same arithmetic.
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

// ScoreBatchOn scores every configuration on the engine's workers (nil
// engine: serial), bitwise equal to Score on each. A batch drawn from a
// product space repeats component sub-configurations, and a part's
// prediction and cores depend on nothing else, so each part numbers its
// distinct sub-configurations and evaluates each once; under a
// CellPredictor it numbers those again by model cell and walks the model
// once per cell (cores stay per sub-configuration: they follow the layout,
// not the cell). Every configuration then gathers its parts' values and
// folds them. Output is identical for any worker count: ids follow first
// occurrence, and every evaluation and fold writes only its own slot. Part
// predictors must be read-only under Predict, which every model in this
// repository is, and Features must return vectors of one length.
func (lf *LowFidelity) ScoreBatchOn(e *score.Engine, cfgs []cfgspace.Config) []float64 {
	// Cells are stored as they are found, in blocks of blockRows, and each
	// block is predicted as one PredictBatch: its rows and outputs stay in L1
	// while the trees stream, and nothing is re-copied as cells accrue.
	const blockRows = 256
	type table struct {
		ids   []int32       // per configuration: its sub-configuration's id
		first []int32       // per id: the first configuration that has it
		vals  []float64     // per id
		cores []float64     // per id (BottleneckSum only)
		cell  []int32       // per id: its model cell (CellPredictor parts only)
		keys  [][]int       // per block: its cells' keys, end to end
		rows  [][][]float64 // per block and cell: the first feature vector in it
	}
	tabs := make([]table, len(lf.Parts))
	e.Tasks(len(tabs), func(j int) {
		part, t := &lf.Parts[j], &tabs[j]
		subs := cfgspace.NewNumbering(len(cfgs), func(id int32) []int { return part.Sub(cfgs[t.first[id]]) })
		t.ids, t.first = make([]int32, len(cfgs)), make([]int32, 0, len(cfgs))
		for i, cfg := range cfgs {
			id, fresh := subs.ID(part.Sub(cfg))
			if fresh {
				t.first = append(t.first, int32(i))
			}
			t.ids[i] = id
		}
		t.vals = make([]float64, len(t.first))
		if lf.Combine == BottleneckSum {
			t.cores = make([]float64, len(t.first))
			for k, i := range t.first {
				t.cores[k] = part.cores(part.Sub(cfgs[i]))
			}
		}
		cp, ok := part.Predictor.(CellPredictor)
		if !ok || part.Features == nil {
			return
		}
		var key []int // scratch
		cells := cfgspace.NewNumbering(len(t.first), func(c int32) []int {
			return t.keys[c/blockRows][int(c%blockRows)*len(key):][:len(key)]
		})
		t.cell = make([]int32, len(t.first))
		for k, i := range t.first {
			x := part.Features(part.Sub(cfgs[i]))
			if key == nil {
				key = make([]int, len(x))
			}
			cp.Cell(x, key)
			c, fresh := cells.ID(key)
			if fresh {
				if c%blockRows == 0 {
					t.keys = append(t.keys, make([]int, 0, blockRows*len(key)))
					t.rows = append(t.rows, make([][]float64, 0, blockRows))
				}
				b := c / blockRows
				t.keys[b], t.rows[b] = append(t.keys[b], key...), append(t.rows[b], x)
			}
			t.cell[k] = c
		}
	})
	for j := range tabs {
		part, t := &lf.Parts[j], &tabs[j]
		if t.cell == nil {
			e.Map(len(t.first), func(k int) { t.vals[k] = part.Predict(part.Sub(cfgs[t.first[k]])) })
			continue
		}
		pred := make([]float64, len(t.rows)*blockRows)
		e.Tasks(len(t.rows), func(b int) {
			part.Predictor.(CellPredictor).PredictBatch(t.rows[b], pred[b*blockRows:][:len(t.rows[b])])
		})
		for k, c := range t.cell {
			t.vals[k] = pred[c]
		}
	}
	out := make([]float64, len(cfgs))
	e.MapChunks(len(cfgs), func(lo, hi int) {
		vs := make([]float64, len(tabs))
		var cores []float64
		if lf.Combine == BottleneckSum {
			cores = make([]float64, len(tabs))
		}
		for i := lo; i < hi; i++ {
			for j := range tabs {
				id := tabs[j].ids[i]
				vs[j] = tabs[j].vals[id]
				if cores != nil {
					cores[j] = tabs[j].cores[id]
				}
			}
			out[i] = lf.fold(vs, cores)
		}
	})
	return out
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
