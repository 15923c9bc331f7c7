package live

import (
	"fmt"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/drift"
	"ceal/internal/tuner"
)

// NewContinuous assembles a continuous (online-retuning) tuning run for a
// job: a drift environment decorating remote(job under each condition of
// the named load profile) — nil measures in-process, `workers` wide — one
// problem built exactly like NewProblem that measures through it, and a
// regret oracle over the full candidate pool (a prefix oracle can miss a
// drift-shifted optimum entirely, which silently clamps regret to zero).
// Assembly measures nothing: the environment measures its clock unit on
// the session's first dispatch, under the run's ctx. Everything is
// deterministic from (seed, profile), at any worker count and wherever it
// measures. The caller picks the Algorithm and may adjust Opts before Run.
func NewContinuous(job dispatch.Job, poolSize int, profileName string, workers int, remote func(dispatch.Job) dispatch.Dispatcher) (*tuner.Continuous, error) {
	prof, err := cluster.ParseProfile(profileName, job.Seed)
	if err != nil {
		return nil, err
	}
	ev, err := NewEvaluator(job)
	if err != nil {
		return nil, err
	}
	p := NewProblem(ev.Bench, ev.Obj, poolSize, job.Seed)
	if len(p.Pool) == 0 {
		return nil, fmt.Errorf("live: benchmark %q produced an empty pool", job.Benchmark)
	}
	p.Workers = workers
	runner := dispatch.NewRunner(workers)
	env, err := drift.NewEnv(func(ld cluster.Load) (dispatch.Dispatcher, error) {
		if remote != nil {
			return remote(job.Under(ld)), nil
		}
		ev, err := NewEvaluator(job.Under(ld))
		if err != nil {
			return nil, err
		}
		return dispatch.NewLocal(ev, runner), nil
	}, prof, p.Pool[0])
	if err != nil {
		return nil, err
	}
	p.Dispatcher = env
	return &tuner.Continuous{Problem: p, Opts: tuner.ContinuousOptions{OracleCfgs: p.Pool}}, nil
}
