// Package live assembles runnable auto-tuning problems over the cluster
// simulator: the "live" measurement path, as opposed to the experiment
// harness's pre-measured ground truths. It owns the benchmark → problem
// wiring — pool sampling, component metadata, the simulator-backed
// evaluator, the continuous driver — and the by-name registries for
// algorithms and objectives, so the public facade (package ceal), the run
// engine (internal/service, which ceal-serve and ceal-tune both drive), the
// worker daemon and the experiment harness (internal/paperexp, which sits
// above this package) all measure and build from one copy.
package live

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strings"
	"sync/atomic"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// Evaluator measures configurations by actually running the cluster
// simulator. Noise is keyed to the configuration so repeated measurements
// of the same configuration are reproducible.
type Evaluator struct {
	Bench *workflow.Benchmark
	Obj   workflow.Objective
	Seed  uint64

	events atomic.Int64 // simulator events popped, over every measurement
}

// SimEvents returns how many simulator events the evaluator's measurements
// have popped.
func (e *Evaluator) SimEvents() int64 { return e.events.Load() }

// NewEvaluator resolves a job identity into its evaluator — the benchmark on
// the default machine under the job's load, the objective, the seed: what a
// worker, a service replica, the CLI's report and a session measure with.
func NewEvaluator(job dispatch.Job) (*Evaluator, error) {
	m := cluster.Default()
	if job.Load != nil {
		m = m.UnderLoad(*job.Load)
	}
	b, err := workflow.ByName(m, job.Benchmark)
	if err != nil {
		return nil, err
	}
	obj, err := ParseObjective(job.Objective)
	if err != nil {
		return nil, err
	}
	return &Evaluator{Bench: b, Obj: obj, Seed: job.Seed}, nil
}

// ErrBadItem marks a measurement the evaluator refused because the request
// itself is malformed (unknown component, configuration outside the
// space) — the caller's fault, not a failed run.
var ErrBadItem = errors.New("live: bad measurement item")

// MeasureWorkflow implements collector.Evaluator.
func (e *Evaluator) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	w, err := e.Bench.Build(cfg) // validates cfg against the workflow space
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadItem, err)
	}
	meas, err := w.Measure(e.noise("wf", cfg))
	if err != nil {
		return 0, err
	}
	e.events.Add(meas.Events)
	return meas.Value(e.Obj), nil
}

// MeasureComponent implements collector.Evaluator. Requests can come off
// the wire (ceal-worker), so cfg is validated before it reaches the
// application models: it must lie in the component's space, and be nil
// exactly for an unconfigurable component.
func (e *Evaluator) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	if j < 0 || j >= len(e.Bench.Components) {
		return 0, fmt.Errorf("%w: component index %d out of range", ErrBadItem, j)
	}
	cs := e.Bench.Components[j]
	if cs.Space == nil {
		if len(cfg) != 0 {
			return 0, fmt.Errorf("%w: component %s takes no configuration, got %v", ErrBadItem, cs.Name, cfg)
		}
	} else if !cs.Space.IsValid(cfg) {
		return 0, fmt.Errorf("%w: %v is not a valid %s configuration", ErrBadItem, cfg, cs.Name)
	}
	meas, err := workflow.MeasureSolo(e.Bench.Machine, cs.BuildSolo(cfg), cs.InBytesPerStep, e.noise(cs.Name, cfg))
	if err != nil {
		return 0, err
	}
	e.events.Add(meas.Events)
	return meas.Value(e.Obj), nil
}

func (e *Evaluator) noise(kind string, cfg cfgspace.Config) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte(cfg.Key()))
	return rand.New(rand.NewPCG(e.Seed, h.Sum64()))
}

// NewProblem assembles a live auto-tuning problem over a benchmark: a
// candidate pool of poolSize random valid configurations, evaluated by
// running the simulator on demand through the problem's caching collector.
// Everything is deterministic from seed: the pool, the evaluator's noise
// and the algorithm's random stream all derive from it.
func NewProblem(b *workflow.Benchmark, obj workflow.Objective, poolSize int, seed uint64) *tuner.Problem {
	rng := rand.New(rand.NewPCG(seed, 0xcea1))
	return &tuner.Problem{
		Name:       fmt.Sprintf("%s/%s", b.Name, obj.Short()),
		Space:      b.Space,
		Components: Components(b),
		Pool:       b.Space.SampleN(rng, poolSize),
		Eval:       &Evaluator{Bench: b, Obj: obj, Seed: seed},
		Combiner:   acm.ForObjective(obj != workflow.ExecTime),
		Seed:       seed,
	}
}

// Components wires a benchmark's component applications into the tuner's
// view of them, in problem order: name, sub-space (whose columns are the
// component model's features) and the cores a sub-configuration occupies.
// Every Problem over a benchmark — live or served from a pre-measured
// ground truth — carries exactly this.
func Components(b *workflow.Benchmark) []tuner.ComponentInfo {
	comps := make([]tuner.ComponentInfo, len(b.Components))
	for j, cs := range b.Components {
		comps[j] = tuner.ComponentInfo{Name: cs.Name, Space: cs.Space}
		comps[j].Cores = func(cfg cfgspace.Config) float64 {
			return float64(cs.Layout(cfg).Nodes() * b.Machine.CoresPerNode)
		}
	}
	return comps
}

// AlgorithmByName maps a name (rs, al, geist, alph, ceal) to a fresh
// algorithm instance with default options.
func AlgorithmByName(name string) (tuner.Algorithm, error) {
	switch strings.ToLower(name) {
	case "rs":
		return tuner.RS{}, nil
	case "al":
		return tuner.NewAL(), nil
	case "geist":
		return tuner.NewGEIST(), nil
	case "alph":
		return tuner.NewALpH(), nil
	case "ceal":
		return tuner.NewCEAL(), nil
	default:
		return nil, fmt.Errorf("ceal: unknown algorithm %q", name)
	}
}

// ParseObjective maps a short objective name (exec, comp, energy) to its
// Objective.
func ParseObjective(name string) (workflow.Objective, error) {
	for _, obj := range []workflow.Objective{workflow.ExecTime, workflow.CompTime, workflow.Energy} {
		if strings.EqualFold(name, obj.Short()) {
			return obj, nil
		}
	}
	return 0, fmt.Errorf("ceal: unknown objective %q (want exec, comp, or energy)", name)
}
