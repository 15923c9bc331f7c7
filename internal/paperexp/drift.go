package paperexp

import (
	"fmt"

	"ceal/internal/dispatch"
	"ceal/internal/live"
	"ceal/internal/metrics"
	"ceal/internal/tuner"
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
// results/drift-reps3.txt) covers.
func driftProfiles() []string { return []string{"step", "ramp", "periodic", "neighbor", "nodeslow"} }

// newDriftArm assembles one continuous run (environment + driver) for a
// workflow under a profile. maxEpochs < 0 is the tune-once arm.
func newDriftArm(wf, profile string, opt Options, seed uint64, maxEpochs int) (*tuner.Continuous, error) {
	poolSize := opt.Pool
	if poolSize <= 0 {
		poolSize = 500
	}
	job := dispatch.Job{Benchmark: wf, Objective: CompTime.Short(), Seed: seed}
	c, err := live.NewContinuous(job, poolSize, profile, opt.Workers, nil)
	if err != nil {
		return nil, err
	}
	c.Algorithm = tuner.NewCEAL()
	c.Problem.Ctx = opt.Ctx
	c.Opts.Probes = driftProbes
	c.Opts.Horizon = driftHorizon
	c.Opts.ProbeInterval = driftInterval
	c.Opts.MaxEpochs = maxEpochs
	c.Opts.ReexploreBudget = driftBudget
	return c, nil
}

// runDrift compares tune-once vs online retuning cumulative regret on the
// three paper workflows under the non-trivial drift profiles.
func runDrift(_ map[string]*GroundTruth, opt Options) ([]*Table, error) {
	reps := min(opt.reps(), driftMaxReps)
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
