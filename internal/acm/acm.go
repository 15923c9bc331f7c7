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
	"slices"

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
// prediction and cores depend on nothing else, so each part is evaluated
// once per distinct sub-configuration and every configuration then gathers
// its parts' values and folds them. The tables built on the way (an id per
// configuration and part, the interning tables) are dropped on return.
// Output is identical for any worker count: ids follow first occurrence in
// cfgs, and every evaluation and fold writes only its own slot. Part
// predictors must be read-only under Predict, which every model in this
// repository is.
func (lf *LowFidelity) ScoreBatchOn(e *score.Engine, cfgs []cfgspace.Config) []float64 {
	type table struct {
		ids   []int32 // per configuration: its sub-configuration's id
		first []int32 // per id: the first configuration that has it
		vals  []float64
		cores []float64
	}
	tabs := make([]table, len(lf.Parts))
	e.Tasks(len(tabs), func(j int) {
		t := &tabs[j]
		t.ids, t.first = lf.Parts[j].intern(cfgs)
		t.vals = make([]float64, len(t.first))
		if lf.Combine == BottleneckSum {
			t.cores = make([]float64, len(t.first))
		}
	})
	for j := range tabs {
		part, t := &lf.Parts[j], &tabs[j]
		e.Map(len(t.first), func(k int) {
			sub := part.Sub(cfgs[t.first[k]])
			t.vals[k] = part.Predict(sub)
			if t.cores != nil {
				t.cores[k] = part.cores(sub)
			}
		})
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

// intern numbers the part's distinct sub-configurations across cfgs in
// first-seen order: ids[i] is configuration i's number and first[k] the
// first configuration numbered k. An open-addressed table of those numbers,
// probed by a hash of the sub-configuration's values and verified against
// the first holder, stands in for a map keyed by a per-configuration
// string: a 100k pool may hold 99k distinct sub-configurations, and the
// table is one allocation where the map was 99k keys.
func (part *Part) intern(cfgs []cfgspace.Config) (ids, first []int32) {
	size := 16
	for size < 2*len(cfgs) {
		size *= 2
	}
	slots := make([]int32, size) // id+1; 0 is empty
	ids = make([]int32, len(cfgs))
	for i, cfg := range cfgs {
		sub := part.Sub(cfg)
		h := uint64(14695981039346656037) // FNV-1a over whole values
		for _, v := range sub {
			h = (h ^ uint64(v)) * 1099511628211
		}
		at := int(h>>32^h) & (size - 1)
		for {
			id := slots[at] - 1
			if id < 0 {
				id = int32(len(first))
				slots[at] = id + 1
				first = append(first, int32(i))
			} else if !slices.Equal(sub, part.Sub(cfgs[first[id]])) {
				at = (at + 1) & (size - 1)
				continue
			}
			ids[i] = id
			break
		}
	}
	return ids, first
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
