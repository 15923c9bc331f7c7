package live

import (
	"fmt"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/drift"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// NewContinuous assembles a continuous (online-retuning) tuning run over a
// benchmark: a drift environment whose machine follows the named load
// profile, one problem built exactly like NewProblem that measures through
// it, and a regret oracle over the full candidate pool — a prefix oracle can
// miss a drift-shifted optimum entirely, which silently clamps regret to
// zero. Everything is deterministic from (seed, profile): the pool, the
// evaluator noise, the profile's jittered onsets, and the virtual clock all
// derive from them, at any worker count. The caller picks the Algorithm and
// may adjust Opts before Run.
func NewContinuous(b *workflow.Benchmark, obj workflow.Objective, poolSize int, seed uint64, profileName string, workers int) (*tuner.Continuous, error) {
	prof, err := cluster.ParseProfile(profileName, seed)
	if err != nil {
		return nil, err
	}
	base := b.Machine
	name := b.Name
	build := func(ld cluster.Load) dispatch.Evaluator {
		lb, err := workflow.ByName(base.UnderLoad(ld), name)
		if err != nil {
			// The name came from a successfully built benchmark; ByName on
			// the same catalogue cannot fail.
			panic(fmt.Sprintf("live: rebuilding benchmark %q under load: %v", name, err))
		}
		return &Evaluator{Bench: lb, Obj: obj, Seed: seed}
	}
	p := NewProblem(b, obj, poolSize, seed)
	if len(p.Pool) == 0 {
		return nil, fmt.Errorf("live: benchmark %q produced an empty pool", name)
	}
	env, err := drift.NewEnv(build, prof, p.Pool[0])
	if err != nil {
		return nil, err
	}
	if workers > 1 {
		env.Runner = dispatch.NewRunner(workers)
		p.Workers = workers
	}
	p.Dispatcher = env
	return &tuner.Continuous{Problem: p, Env: env, Opts: tuner.ContinuousOptions{OracleCfgs: p.Pool}}, nil
}
