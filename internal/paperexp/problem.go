package paperexp

import (
	"fmt"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/live"
	"ceal/internal/tuner"
)

// gtEvaluator serves measurements from a pre-built ground truth — exactly
// how the paper evaluates algorithms against its measured test dataset.
type gtEvaluator struct {
	gt      *GroundTruth
	obj     Objective
	compIdx []map[string]int
}

func newGTEvaluator(gt *GroundTruth, obj Objective) *gtEvaluator {
	e := &gtEvaluator{gt: gt, obj: obj, compIdx: make([]map[string]int, len(gt.Bench.Components))}
	for j, samples := range gt.componentSamples(obj) {
		e.compIdx[j] = make(map[string]int, len(samples))
		for i, s := range samples {
			e.compIdx[j][s.Cfg.Key()] = i
		}
	}
	return e
}

// MeasureWorkflow implements tuner.Evaluator by pool lookup.
func (e *gtEvaluator) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	return e.gt.Lookup(cfg, e.obj)
}

// MeasureComponent implements tuner.Evaluator from the component sets.
func (e *gtEvaluator) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	if cfg == nil {
		return e.gt.fixedValues(e.obj)[j], nil
	}
	i, ok := e.compIdx[j][cfg.Key()]
	if !ok {
		return 0, fmt.Errorf("paperexp: component %d configuration %v not in the measured set", j, cfg)
	}
	return e.gt.componentSamples(e.obj)[j][i].Value, nil
}

// Problem builds a tuner.Problem over this ground truth. withHistory
// exposes the full component measurement sets as free historical data
// (§7.5); otherwise CEAL must spend budget measuring components, drawing
// from the pre-measured candidate sets.
func (gt *GroundTruth) Problem(obj Objective, withHistory bool, seed uint64) *tuner.Problem {
	b := gt.Bench
	compPool := make([][]cfgspace.Config, len(b.Components))
	history := make([][]tuner.Sample, len(b.Components))
	for j, cs := range b.Components {
		if cs.Space == nil {
			continue
		}
		samples := gt.componentSamples(obj)[j]
		if withHistory {
			history[j] = samples
		} else {
			for _, s := range samples {
				compPool[j] = append(compPool[j], s.Cfg)
			}
		}
	}
	p := &tuner.Problem{
		Name:          fmt.Sprintf("%s/%s", b.Name, obj.Short()),
		Space:         b.Space,
		Components:    live.Components(b),
		Pool:          gt.Pool,
		Eval:          newGTEvaluator(gt, obj),
		Combiner:      acm.ForObjective(obj != ExecTime),
		ComponentPool: compPool,
		Features:      b.Features,
		Seed:          seed,
	}
	if withHistory {
		p.History = history
	}
	return p
}
