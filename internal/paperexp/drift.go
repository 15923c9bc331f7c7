package paperexp

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/drift"
	"ceal/internal/metrics"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// The drift experiment compares the two responses to a platform that
// changes while the tuned workflow keeps running: tune once and hold the
// stale incumbent, or monitor and retune online (tuner.Continuous). Both
// arms share one virtual-clock environment shape (same seed → same pool,
// same profile jitter, same noise), probe at the same cadence, and charge
// regret against the same oracle — the best configuration in the sampled
// pool at the probe's platform condition — so the only difference
// is whether confirmed drift triggers bounded, warm-started re-exploration.

// Sizing: small enough that the experiment runs live simulations at
// interactive speed, large enough that every profile's drift lands inside
// the monitoring window.
const (
	driftBudget   = 30  // initial tuning budget (workflow-run equivalents)
	driftProbes   = 200 // probe cap per arm (the horizon ends runs first)
	driftHorizon  = 480 // common virtual-time horizon (units) per arm
	driftInterval = 8   // idle units between probes (per-probe cost adds to this)
	driftMaxReps  = 5   // replication cap (live sims; see table notes)
)

// driftProfiles are the non-trivial profiles the experiment (and
// BENCH_drift.json) covers.
func driftProfiles() []string { return []string{"step", "ramp", "periodic", "neighbor", "nodeslow"} }

// simEvaluator measures by running the cluster simulator — the live
// measurement path, duplicated here because internal/live sits above
// paperexp in the import order. Noise is keyed to the configuration, so
// repeated measurements are reproducible (and a constant-load probe of the
// incumbent reproduces its tuned value exactly).
type simEvaluator struct {
	bench *workflow.Benchmark
	obj   Objective
	seed  uint64
}

func (e *simEvaluator) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	w, err := e.bench.Build(cfg)
	if err != nil {
		return 0, err
	}
	meas, err := w.Measure(e.noise("wf", cfg))
	if err != nil {
		return 0, err
	}
	return e.pick(meas), nil
}

func (e *simEvaluator) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	if j < 0 || j >= len(e.bench.Components) {
		return 0, fmt.Errorf("paperexp: component index %d out of range", j)
	}
	cs := e.bench.Components[j]
	meas, err := workflow.MeasureSolo(e.bench.Machine, cs.BuildSolo(cfg), cs.InBytesPerStep, e.noise(cs.Name, cfg))
	if err != nil {
		return 0, err
	}
	return e.pick(meas), nil
}

func (e *simEvaluator) pick(meas workflow.Measurement) float64 {
	switch e.obj {
	case ExecTime:
		return meas.ExecTime
	case CompTime:
		return meas.CompTime
	default:
		return meas.EnergyKJ
	}
}

func (e *simEvaluator) noise(kind string, cfg cfgspace.Config) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte(cfg.Key()))
	return rand.New(rand.NewPCG(e.seed, h.Sum64()))
}

// driftProblem builds a live-simulator tuning problem over a benchmark —
// the same wiring as live.NewProblem, kept in lockstep by the import-order
// duplication noted on simEvaluator.
func driftProblem(b *workflow.Benchmark, obj Objective, poolSize int, seed uint64, workers int) *tuner.Problem {
	rng := rand.New(rand.NewPCG(seed, 0xcea1))
	comps := make([]tuner.ComponentInfo, len(b.Components))
	for j, cs := range b.Components {
		cs := cs
		comps[j] = tuner.ComponentInfo{Name: cs.Name, Space: cs.Space}
		comps[j].Cores = func(cfg cfgspace.Config) float64 {
			return float64(cs.BuildSolo(cfg).Nodes() * b.Machine.CoresPerNode)
		}
		if cs.Space != nil {
			comps[j].Features = func(cfg cfgspace.Config) []float64 { return cs.Features(b.Machine, cfg) }
		}
	}
	return &tuner.Problem{
		Name:         fmt.Sprintf("%s/%s/drift", b.Name, obj.Short()),
		Space:        b.Space,
		Components:   comps,
		Pool:         b.Space.SampleN(rng, poolSize),
		Eval:         &simEvaluator{bench: b, obj: obj, seed: seed},
		Combiner:     combinerFor(obj),
		Features:     b.Features,
		FeatureNames: b.FeatureNames(),
		Workers:      workers,
		Seed:         seed,
	}
}

// newDriftArm assembles one continuous run (environment + driver) for a
// workflow under a profile. maxEpochs < 0 is the tune-once arm.
func newDriftArm(wf, profile string, opt Options, seed uint64, maxEpochs int) (*tuner.Continuous, error) {
	base := cluster.Default()
	b, err := workflow.ByName(base, wf)
	if err != nil {
		return nil, err
	}
	prof, err := cluster.ParseProfile(profile, seed)
	if err != nil {
		return nil, err
	}
	poolSize := opt.Build.PoolSize
	if poolSize <= 0 {
		poolSize = 500
	}
	newProblem := func() *tuner.Problem {
		return driftProblem(b, CompTime, poolSize, seed, opt.Build.Workers)
	}
	pool := newProblem().Pool
	build := func(ld cluster.Load) dispatch.Evaluator {
		lb, err := workflow.ByName(base.UnderLoad(ld), wf)
		if err != nil {
			panic(fmt.Sprintf("paperexp: rebuilding %q under load: %v", wf, err))
		}
		return &simEvaluator{bench: lb, obj: CompTime, seed: seed}
	}
	env, err := drift.NewEnv(build, prof, pool[0])
	if err != nil {
		return nil, err
	}
	if w := opt.Build.Workers; w > 1 {
		env.Runner = dispatch.NewRunner(w)
	}
	return &tuner.Continuous{
		Algorithm:  tuner.NewCEAL(),
		NewProblem: newProblem,
		Env:        env,
		Ctx:        opt.Ctx,
		Opts: tuner.ContinuousOptions{
			Probes:          driftProbes,
			Horizon:         driftHorizon,
			ProbeInterval:   driftInterval,
			MaxEpochs:       maxEpochs,
			ReexploreBudget: driftBudget,
			OracleCfgs:      pool,
		},
	}, nil
}

// runDrift compares tune-once vs online retuning cumulative regret on the
// three paper workflows under the non-trivial drift profiles.
func runDrift(_ map[string]*GroundTruth, opt Options) ([]*Table, error) {
	reps := opt.Reps
	if reps < 1 {
		reps = 1
	}
	if reps > driftMaxReps {
		reps = driftMaxReps
	}
	t := &Table{
		Title: fmt.Sprintf("Drift: tune-once vs online retuning, time-weighted cumulative regret to horizon %d (computer time, %d samples)",
			driftHorizon, driftBudget),
		Header: []string{"wf", "profile", "tune-once regret", "online regret", "reduction %", "retunes", "reexplore cost", "online wins"},
	}
	for _, wf := range []string{"LV", "HS", "GP"} {
		for _, profile := range driftProfiles() {
			var onceRegret, onlineRegret, retunes, reexCost []float64
			for rep := 0; rep < reps; rep++ {
				seed := opt.Seed + uint64(rep)*1000

				once, err := newDriftArm(wf, profile, opt, seed, -1)
				if err != nil {
					return nil, err
				}
				onceRes, err := once.Run(driftBudget)
				if err != nil {
					return nil, err
				}

				online, err := newDriftArm(wf, profile, opt, seed, 0)
				if err != nil {
					return nil, err
				}
				onlineRes, err := online.Run(driftBudget)
				if err != nil {
					return nil, err
				}

				onceRegret = append(onceRegret, onceRes.CumulativeRegret)
				onlineRegret = append(onlineRegret, onlineRes.CumulativeRegret)
				retunes = append(retunes, float64(onlineRes.Retunes))
				reexCost = append(reexCost, onlineRes.ReexploreCost)
			}
			onceMean, onlineMean := metrics.Mean(onceRegret), metrics.Mean(onlineRegret)
			reduction := 0.0
			if onceMean > 0 {
				reduction = (1 - onlineMean/onceMean) * 100
			}
			win := "no"
			if onlineMean < onceMean {
				win = "yes"
			}
			t.AddRow(wf, profile, f2(onceMean), f2(onlineMean), f1(reduction),
				f1(metrics.Mean(retunes)), f2(metrics.Mean(reexCost)), win)
		}
	}
	t.Notes = append(t.Notes,
		"regret integrates (incumbent value - oracle best over the sampled pool at the probe's condition) over virtual time to a common horizon; both arms share seed, profile jitter, cadence and oracle",
		"reexplore cost (metric units) is the online arm's re-exploration measurement spend, reported separately so the regret comparison stays honest",
		fmt.Sprintf("live-simulation experiment: replications are capped at %d", driftMaxReps))
	return []*Table{t}, nil
}
