// Package paperexp reproduces the paper's experimental evaluation (§7):
// ground-truth construction for the three benchmark workflows, the
// algorithm battery with replication, and one driver per table and figure
// (Tables 1–2, Figures 4–13) plus the design-choice ablations.
package paperexp

import (
	"context"
	"fmt"
	"math/rand/v2"

	"ceal/internal/cfgspace"
	"ceal/internal/dispatch"
	"ceal/internal/metrics"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// Objective selects the optimization metric (workflow.Objective; the harness
// names it ~90 times, so the three values keep their short spellings here).
type Objective = workflow.Objective

const (
	ExecTime = workflow.ExecTime
	CompTime = workflow.CompTime
	Energy   = workflow.Energy
)

// GroundTruth is the pre-measured test dataset of one benchmark (§7.1): a
// pool of workflow configurations with in-situ measurements under both
// objectives, per-component standalone measurement sets, and the expert
// configurations' performance.
type GroundTruth struct {
	Bench  *workflow.Benchmark
	Pool   []cfgspace.Config
	Exec   []float64 // in-situ execution time per pool configuration
	Comp   []float64 // in-situ computer time per pool configuration
	Energy []float64 // in-situ energy per pool configuration (kJ)

	// CompExec/CompComp/CompEnergy hold each configurable component's
	// standalone measurements (the paper's 500 random component
	// configurations); empty for unconfigurable components.
	CompExec   [][]tuner.Sample
	CompComp   [][]tuner.Sample
	CompEnergy [][]tuner.Sample
	// FixedExec/FixedComp/FixedEnergy are the solo measurements of
	// unconfigurable components (zero for configurable ones).
	FixedExec   []float64
	FixedComp   []float64
	FixedEnergy []float64

	// ExpertExec, ExpertComp and ExpertEnergy are the expert
	// configurations' measured performance under their objectives (the
	// computer-time expert doubles as the energy expert).
	ExpertExec   float64
	ExpertComp   float64
	ExpertEnergy float64

	poolIdx map[string]int
}

// byObjective picks the one of three per-objective values obj selects.
func byObjective[T any](obj Objective, exec, comp, energy T) T {
	switch obj {
	case ExecTime:
		return exec
	case CompTime:
		return comp
	default:
		return energy
	}
}

// Values returns the pool measurements for an objective.
func (gt *GroundTruth) Values(obj Objective) []float64 {
	return byObjective(obj, gt.Exec, gt.Comp, gt.Energy)
}

// Best returns the best (lowest) pool value for an objective.
func (gt *GroundTruth) Best(obj Objective) float64 {
	vals := gt.Values(obj)
	return vals[metrics.TopIndices(1, vals)[0]]
}

// BestConfig returns the best pool configuration for an objective.
func (gt *GroundTruth) BestConfig(obj Objective) cfgspace.Config {
	return gt.Pool[metrics.TopIndices(1, gt.Values(obj))[0]]
}

// Expert returns the expert configuration's value for an objective.
func (gt *GroundTruth) Expert(obj Objective) float64 {
	return byObjective(obj, gt.ExpertExec, gt.ExpertComp, gt.ExpertEnergy)
}

// Lookup returns the pool measurement of cfg under an objective.
func (gt *GroundTruth) Lookup(cfg cfgspace.Config, obj Objective) (float64, error) {
	i, ok := gt.poolIdx[cfg.Key()]
	if !ok {
		return 0, fmt.Errorf("paperexp: configuration %v not in the measured pool", cfg)
	}
	return gt.Values(obj)[i], nil
}

// BuildOptions sizes a ground-truth build.
type BuildOptions struct {
	PoolSize         int    // workflow configurations to measure (paper: 2000)
	ComponentSamples int    // standalone runs per configurable component (paper: 500)
	Seed             uint64 // drives sampling and measurement noise
	Workers          int    // parallel simulation width (<=0: serial)
	// Ctx optionally cancels the build mid-batch; nil means
	// context.Background().
	Ctx context.Context
}

func (o BuildOptions) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// BuildGroundTruth measures a benchmark's pool and component sets on the
// cluster simulator. Every measurement's noise is keyed to the sample
// index, so the result is byte-for-byte reproducible regardless of worker
// scheduling.
func BuildGroundTruth(b *workflow.Benchmark, opt BuildOptions) (*GroundTruth, error) {
	if opt.PoolSize < 2 || opt.ComponentSamples < 1 {
		return nil, fmt.Errorf("paperexp: need pool >= 2 and component samples >= 1")
	}
	rng := rand.New(rand.NewPCG(opt.Seed, 0xfeed))
	gt := &GroundTruth{
		Bench:       b,
		Pool:        b.Space.SampleN(rng, opt.PoolSize),
		CompExec:    make([][]tuner.Sample, len(b.Components)),
		CompComp:    make([][]tuner.Sample, len(b.Components)),
		CompEnergy:  make([][]tuner.Sample, len(b.Components)),
		FixedExec:   make([]float64, len(b.Components)),
		FixedComp:   make([]float64, len(b.Components)),
		FixedEnergy: make([]float64, len(b.Components)),
		poolIdx:     make(map[string]int, opt.PoolSize),
	}
	// The build runs straight on the measurement pool, not through a
	// collector: the noise streams below are keyed to the sample index, not
	// the configuration, so a repeated configuration gets its own
	// independent noise draw and nothing here could ever be a cache hit.
	ctx := opt.context()
	runner := dispatch.NewRunner(opt.Workers)

	// Measure the workflow pool.
	jobs := make([]func(int) (workflow.Measurement, error), len(gt.Pool))
	for i, cfg := range gt.Pool {
		gt.poolIdx[cfg.Key()] = i
		jobs[i] = func(int) (workflow.Measurement, error) {
			w, err := b.Build(cfg)
			if err != nil {
				return workflow.Measurement{}, err
			}
			noise := rand.New(rand.NewPCG(opt.Seed, 0x1000000+uint64(i)))
			return w.Measure(noise)
		}
	}
	pool, err := dispatch.Do(ctx, runner.Workers, runner.Retry, jobs)
	if err != nil {
		return nil, fmt.Errorf("paperexp: measure %s pool: %w", b.Name, err)
	}
	gt.Exec = make([]float64, len(pool))
	gt.Comp = make([]float64, len(pool))
	gt.Energy = make([]float64, len(pool))
	for i, meas := range pool {
		gt.Exec[i] = meas.ExecTime
		gt.Comp[i] = meas.CompTime
		gt.Energy[i] = meas.EnergyKJ
	}

	// Measure the component sets.
	for j, cs := range b.Components {
		if cs.Space == nil {
			meas, err := workflow.RunSolo(b.Machine, cs.BuildSolo(nil), cs.InBytesPerStep)
			if err != nil {
				return nil, fmt.Errorf("paperexp: measure fixed %s/%s: %w", b.Name, cs.Name, err)
			}
			gt.FixedExec[j] = meas.ExecTime
			gt.FixedComp[j] = meas.CompTime
			gt.FixedEnergy[j] = meas.EnergyKJ
			continue
		}
		cfgs := cs.Space.SampleN(rng, opt.ComponentSamples)
		jobs := make([]func(int) (workflow.Measurement, error), len(cfgs))
		for i, cfg := range cfgs {
			jobs[i] = func(int) (workflow.Measurement, error) {
				noise := rand.New(rand.NewPCG(opt.Seed, 0x2000000+uint64(j)<<20+uint64(i)))
				return workflow.MeasureSolo(b.Machine, cs.BuildSolo(cfg), cs.InBytesPerStep, noise)
			}
		}
		solos, err := dispatch.Do(ctx, runner.Workers, runner.Retry, jobs)
		if err != nil {
			return nil, fmt.Errorf("paperexp: measure %s/%s set: %w", b.Name, cs.Name, err)
		}
		for i, cfg := range cfgs {
			gt.CompExec[j] = append(gt.CompExec[j], tuner.Sample{Cfg: cfg, Value: solos[i].ExecTime})
			gt.CompComp[j] = append(gt.CompComp[j], tuner.Sample{Cfg: cfg, Value: solos[i].CompTime})
			gt.CompEnergy[j] = append(gt.CompEnergy[j], tuner.Sample{Cfg: cfg, Value: solos[i].EnergyKJ})
		}
	}

	// Measure the expert configurations (noiseless reference); the
	// computer-time expert doubles as the energy expert.
	for _, obj := range []Objective{ExecTime, CompTime} {
		w, err := b.Build(b.Expert(obj))
		if err != nil {
			return nil, fmt.Errorf("paperexp: expert config of %s: %w", b.Name, err)
		}
		meas, err := w.RunInSitu()
		if err != nil {
			return nil, err
		}
		if obj == ExecTime {
			gt.ExpertExec = meas.ExecTime
		} else {
			gt.ExpertComp, gt.ExpertEnergy = meas.CompTime, meas.EnergyKJ
		}
	}
	return gt, nil
}

// componentSamples returns the component measurement sets for an objective.
func (gt *GroundTruth) componentSamples(obj Objective) [][]tuner.Sample {
	return byObjective(obj, gt.CompExec, gt.CompComp, gt.CompEnergy)
}

// fixedValues returns the unconfigurable components' solo values.
func (gt *GroundTruth) fixedValues(obj Objective) []float64 {
	return byObjective(obj, gt.FixedExec, gt.FixedComp, gt.FixedEnergy)
}
