// Package service turns the auto-tuning library into a deployable system:
// a job manager that runs tuning jobs concurrently on a bounded worker
// pool, an event hub that fans each run's structured trace out to live
// subscribers (with replay for late joiners), a history database
// (internal/histdb) that persists finished runs and feeds warm starts, and
// an HTTP JSON API (cmd/ceal-serve) over all of it. cmd/ceal-tune drives
// the same Manager in-process: it is the one way a spec becomes a recorded
// run.
//
// The paper frames CEAL as the auto-tuner a facility operates for its
// users ahead of production campaigns (§2.2); this package is that
// operational shape. Determinism is preserved end to end: a job spec fully
// determines its problem (pool, noise, algorithm stream all derive from
// the seed), so a run submitted through the service returns a Result
// byte-identical to the same Tune call made directly, and repeated
// submissions of an identical spec are served from the store instead of
// re-running. Warm-started runs additionally depend on the history
// available at admission; the assembled warm data is pinned into the run
// record so resuming replays identical inputs.
package service

import (
	"fmt"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/histdb"
	"ceal/internal/live"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// JobSpec describes one tuning job — histdb's Spec, whose normalized form
// is the store's identity. Validation and problem assembly stay here
// (validate, BuildSpec) so histdb carries no registry dependencies.
type JobSpec = histdb.Spec

// Admission ceilings on a spec's numeric fields. A spec is a few dozen
// bytes on the wire but sizes the work a manager worker does (the pool is
// sampled and coded up front), so the body-size cap alone bounds
// nothing. Pool and budget sit 10x above the largest workload the repo
// runs (ceal-bench's 100k-configuration bigpool).
const (
	maxPool    = 1_000_000
	maxBudget  = 1_000_000
	maxWorkers = 1024
	maxProbes  = 100_000
)

// resolve looks a normalized spec's names up in the benchmark, objective
// and algorithm registries — the one place the service turns a spec's
// strings into values. The evaluator carries the benchmark and objective.
func resolve(n JobSpec) (*live.Evaluator, tuner.Algorithm, error) {
	ev, err := live.NewEvaluator(n.Job())
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	alg, err := live.AlgorithmByName(n.Algorithm)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	return ev, alg, nil
}

// validate checks a normalized spec against the benchmark, algorithm and
// objective registries and the numeric ranges — the one admission check;
// admission keeps the resolved benchmark for the record's component index.
func validate(n JobSpec) (*workflow.Benchmark, error) {
	ev, _, err := resolve(n)
	if err != nil {
		return nil, err
	}
	if n.Budget < 0 || n.Budget > maxBudget {
		return nil, fmt.Errorf("service: budget %d outside [0, %d]", n.Budget, maxBudget)
	}
	if n.Pool < 1 || n.Pool > maxPool {
		return nil, fmt.Errorf("service: pool size %d outside [1, %d]", n.Pool, maxPool)
	}
	if n.Workers > maxWorkers {
		return nil, fmt.Errorf("service: workers %d above %d", n.Workers, maxWorkers)
	}
	if n.Probes > maxProbes {
		return nil, fmt.Errorf("service: probes %d above %d", n.Probes, maxProbes)
	}
	switch n.Mode {
	case histdb.ModeTune:
	case histdb.ModeContinuous:
		if _, err := cluster.ParseProfile(n.Drift, n.Seed); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		if n.WarmStart {
			return nil, fmt.Errorf("service: continuous runs warm-start internally from their own epochs; drop warm_start")
		}
	default:
		return nil, fmt.Errorf("service: unknown run mode %q (want %q or %q)", n.Mode, histdb.ModeTune, histdb.ModeContinuous)
	}
	return ev.Bench, nil
}

// BuildSpec assembles the runnable problem and algorithm for the spec —
// exactly what ceal.NewProblem plus ceal.AlgorithmByName would build for
// the same arguments, so service results are byte-identical to direct
// Tune calls. A continuous-mode spec builds the same pair: the session's one
// problem, measuring through a drift environment that follows the spec's
// load profile, and the online-retuning driver wrapping the spec's
// algorithm for the spec's probe count. Range checks are admission's job
// (validate); this only fails on a name no registry knows. Warm-start
// data is attached separately by the Manager (it depends on store state, not
// on the spec alone).
func BuildSpec(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
	return buildSpec(s, nil)
}

// BuildSpecRemote returns a Build function that assembles the same problem
// as BuildSpec but dispatches its measurement batches to remote ceal-worker
// daemons at the given URLs instead of the in-process pool — a continuous
// session's drift environment included, each batch's job carrying the
// platform condition it measures under. Evaluator determinism makes the
// substitution invisible in results: a measurement's value depends only on
// (benchmark, objective, seed, platform condition, configuration), never on
// which worker ran it, so remote runs are byte-identical to local ones.
func BuildSpecRemote(workers []string) func(JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
	remote := func(job dispatch.Job) dispatch.Dispatcher { return dispatch.NewRemote(workers, job) }
	return func(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) { return buildSpec(s, remote) }
}

// buildSpec is BuildSpec measuring through remote's dispatcher for a job;
// nil measures in-process.
func buildSpec(s JobSpec, remote func(dispatch.Job) dispatch.Dispatcher) (*tuner.Problem, tuner.Algorithm, error) {
	n := s.Normalize()
	ev, alg, err := resolve(n)
	if err != nil {
		return nil, nil, err
	}
	if n.Mode == histdb.ModeContinuous {
		c, err := live.NewContinuous(n.Job(), n.Pool, n.Drift, n.Workers, remote)
		if err != nil {
			return nil, nil, err
		}
		c.Algorithm = alg
		c.Opts.Probes = n.Probes
		return c.Problem, c, nil
	}
	p := live.NewProblem(ev.Bench, ev.Obj, n.Pool, n.Seed)
	if n.Workers > 1 {
		p.Runner = dispatch.NewRunner(n.Workers)
		p.Workers = n.Workers
	}
	if remote != nil {
		p.Dispatcher = remote(n.Job())
	}
	return p, alg, nil
}
