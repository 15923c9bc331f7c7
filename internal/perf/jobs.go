package perf

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/collector"
	"ceal/internal/histdb"
	"ceal/internal/live"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
	"ceal/internal/service"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// benchmarks is the fixed workflow order inside every seed.
var benchmarks = []string{"LV", "HS", "GP"}

// job is one tuning job of a round. Specs leave everything but benchmark,
// seed and the workload's pool/width at the program's defaults, so a later
// change of defaults shows up without editing the benchmark.
type job struct {
	name string
	spec histdb.Spec
}

// makeJobs generates seeds x {LV,HS,GP} specs. Job seeds derive from the
// benchmark seed and are never 0 (which the program reads as "default").
func makeJobs(seed uint64, seeds, pool, workers int) []job {
	var jobs []job
	for s := 1; s <= seeds; s++ {
		for _, b := range benchmarks {
			spec := histdb.Spec{Benchmark: b, Seed: seed*1000 + uint64(s), Pool: pool, Workers: workers}
			jobs = append(jobs, job{name: fmt.Sprintf("%s/s%d", b, spec.Seed), spec: spec})
		}
	}
	return jobs
}

// outcome is one finished in-process job.
type outcome struct {
	res  *tuner.Result
	wall time.Duration
	// bestInPool is the one output check that needs the pool, made when the
	// job ends: the problem is dropped with its pool and matrices, so
	// finished jobs do not add to the process's resident set.
	bestInPool bool
	lay        *layers
	err        error
}

// runLocal runs one job in-process the way ceal-tune and ceal-serve do:
// service.BuildSpec assembles the default problem, the algorithm tunes it.
// The timed run starts before the problem is assembled (pool sampling is
// part of a run) and ends when Tune returns.
func runLocal(j job, tr *tracer, wrapEval func(collector.Evaluator) collector.Evaluator) outcome {
	spec := j.spec.Normalize()
	t0 := time.Now()
	p, alg, err := service.BuildSpec(spec)
	if err != nil {
		return outcome{err: err}
	}
	if wrapEval != nil {
		p.Eval = wrapEval(p.Eval)
	}
	var out outcome
	var rt *runTrace
	if tr != nil {
		rt = tr.newRun(j.name, spec.Workers)
		rt.buildStart = t0
		rt.attach(p)
		rt.tuneStart = time.Now()
	}
	out.res, out.err = alg.Tune(p, spec.Budget)
	end := time.Now()
	out.wall = end.Sub(t0)
	out.bestInPool = out.res != nil && inPool(p.Pool, out.res.Best)
	if rt != nil && out.err == nil {
		rt.tuneEnd = end
		lay := rt.finish()
		out.lay = &lay
		probeRun(p, out.res, spec.Workers, out.lay)
	}
	return out
}

// probes are the post-run direct measurements of a traced job: the
// collector's all-hit path and full-pool prediction in both matrix
// representations, on the run's own samples and pool.
type probes struct {
	hitUS, floatNS, quantNS float64
	rows                    int
	stats                   collector.Stats
}

func probeRun(p *tuner.Problem, res *tuner.Result, workers int, lay *layers) {
	pr := &probes{stats: p.Collector().Stats(), rows: len(p.Pool)}
	lay.probes = pr
	if len(res.Samples) == 0 {
		return
	}
	cfgs := make([]cfgspace.Config, len(res.Samples))
	X := make([][]float64, len(res.Samples))
	y := make([]float64, len(res.Samples))
	for i, s := range res.Samples {
		cfgs[i] = s.Cfg
		X[i] = p.Features(s.Cfg)
		y[i] = math.Log(s.Value)
	}
	t0 := time.Now()
	if _, err := p.Collector().MeasureWorkflows(context.Background(), cfgs); err == nil {
		pr.hitUS = float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(cfgs))
	}

	eng := score.New(workers)
	model, err := xgb.FitOn(eng, X, y, xgb.DefaultParams())
	if err != nil {
		return
	}
	var mat score.Matrix
	rows := mat.Rows(eng, p.Pool, p.Features)
	quant := score.QuantizeRows(eng, rows)
	out := make([]float64, len(rows))
	model.PredictBatchOnInto(eng, rows, out) // flatten the ensemble, touch the rows
	t0 = time.Now()
	model.PredictBatchOnInto(eng, rows, out)
	pr.floatNS = float64(time.Since(t0)) / float64(len(rows))
	model.PredictBatchQuantizedOnInto(eng, quant, out)
	t0 = time.Now()
	model.PredictBatchQuantizedOnInto(eng, quant, out)
	pr.quantNS = float64(time.Since(t0)) / float64(len(rows))
}

// digest is the identity of a result: the hash of its JSON form.
func digest(res *tuner.Result) ([32]byte, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// checkResult applies the per-run output checks: the recommendation comes
// from the pool, the budget holds, every measured value is finite and
// positive.
func checkResult(chk *checker, name string, spec histdb.Spec, bestInPool bool, res *tuner.Result) {
	if res == nil {
		chk.failf("%s: no result", name)
		return
	}
	if !bestInPool {
		chk.failf("%s: best %v is not a pool configuration", name, res.Best)
	}
	// The budget is in workflow-run equivalents: one round of standalone
	// runs, one per component, is charged as one workflow run (paper §6).
	compRuns := 0
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 }
	for _, s := range res.Samples {
		if bad(s.Value) {
			chk.failf("%s: workflow sample value %v", name, s.Value)
			break
		}
	}
	for _, cs := range res.ComponentSamples {
		compRuns = max(compRuns, len(cs))
		for _, s := range cs {
			if bad(s.Value) {
				chk.failf("%s: component sample value %v", name, s.Value)
				break
			}
		}
	}
	if budget, spent := spec.Normalize().Budget, len(res.Samples)+compRuns; spent > budget {
		chk.failf("%s: %d workflow-run equivalents over budget %d", name, spent, budget)
	}
	if bad(res.CollectionCost) {
		chk.failf("%s: collection cost %v", name, res.CollectionCost)
	}
	for _, v := range res.PoolScores {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			chk.failf("%s: pool score %v", name, v)
			break
		}
	}
}

func inPool(pool []cfgspace.Config, cfg cfgspace.Config) bool {
	return slices.ContainsFunc(pool, func(c cfgspace.Config) bool { return slices.Equal(c, cfg) })
}

// quality measures a result against the expert configuration with the
// job's own evaluator: value(best)/value(expert) and collection cost in
// expert runs (paper Table 2 / Fig. 8, §7.2.3).
func quality(spec histdb.Spec, res *tuner.Result) (tunedOverExpert, costOverExpert float64, err error) {
	n := spec.Normalize()
	b, err := workflow.ByName(cluster.Default(), n.Benchmark)
	if err != nil {
		return 0, 0, err
	}
	obj, err := live.ParseObjective(n.Objective)
	if err != nil {
		return 0, 0, err
	}
	ev := &live.Evaluator{Bench: b, Obj: obj, Seed: n.Seed}
	best, err := ev.MeasureWorkflow(res.Best)
	if err != nil {
		return 0, 0, err
	}
	expert, err := ev.MeasureWorkflow(b.ExpertComp)
	if err != nil {
		return 0, 0, err
	}
	return best / expert, res.CollectionCost / expert, nil
}

// qualityMetrics adds the two geometric-mean quality ratios over a set of
// (spec, result) pairs; jobs that produced no result (the checker already
// holds why) are left out.
func qualityMetrics(metrics map[string]float64, specs []histdb.Spec, results []*tuner.Result) error {
	var tuned, cost []float64
	for i, res := range results {
		if res == nil {
			continue
		}
		t, c, err := quality(specs[i], res)
		if err != nil {
			return err
		}
		tuned = append(tuned, t)
		cost = append(cost, c)
	}
	if len(tuned) > 0 {
		metrics["tuned_over_expert"] = geomean(tuned)
		metrics["collect_cost_over_expert"] = geomean(cost)
	}
	return nil
}

func jobNames(jobs []job) []string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.name
	}
	return names
}

func jobSpecs(jobs []job) []histdb.Spec {
	specs := make([]histdb.Spec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec
	}
	return specs
}
