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
	gt  *GroundTruth
	obj Objective
}

// MeasureWorkflow implements tuner.Evaluator by pool lookup.
func (e *gtEvaluator) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	return e.gt.Lookup(cfg, e.obj)
}

// MeasureComponent implements tuner.Evaluator from the component sets.
func (e *gtEvaluator) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	if cfg == nil {
		return e.gt.fixed[e.obj][j], nil
	}
	if set := e.gt.compIdx[j]; set != nil {
		if i, ok := set.Find(cfg); ok {
			return e.gt.components[e.obj][j][i].Value, nil
		}
	}
	return 0, fmt.Errorf("paperexp: component %d configuration %v not in the measured set", j, cfg)
}

// Problem builds a tuner.Problem over this ground truth that scores its
// pool on opt.Workers and is cancelled by opt.Ctx. withHistory exposes the
// full component measurement sets as free historical data (§7.5);
// otherwise CEAL must spend budget measuring components, drawing from the
// pre-measured candidate sets.
func (gt *GroundTruth) Problem(opt Options, obj Objective, withHistory bool, seed uint64) *tuner.Problem {
	b := gt.Bench
	p := &tuner.Problem{
		Name:          fmt.Sprintf("%s/%s", b.Name, obj.Short()),
		Space:         b.Space,
		Components:    live.Components(b),
		Pool:          gt.Pool,
		Eval:          &gtEvaluator{gt: gt, obj: obj},
		Combiner:      acm.ForObjective(obj != ExecTime),
		ComponentPool: make([][]cfgspace.Config, len(b.Components)),
		Seed:          seed,
		Workers:       opt.Workers,
		Ctx:           opt.Ctx,
	}
	if withHistory {
		p.History = gt.components[obj]
		return p
	}
	for j, set := range gt.components[obj] {
		for _, s := range set {
			p.ComponentPool[j] = append(p.ComponentPool[j], s.Cfg)
		}
	}
	return p
}
