// Package paperexp reproduces the paper's experimental evaluation (§7):
// ground-truth construction for the three benchmark workflows, the
// algorithm battery with replication, and one driver per table and figure
// (Tables 1–2, Figures 4–13) plus the design-choice ablations.
package paperexp

import (
	"fmt"
	"math/rand/v2"
	"sync"

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

// objectives lists every Objective: the ground truth keeps one projection
// (Measurement.Value) of each measurement per entry.
var objectives = [...]Objective{ExecTime, CompTime, Energy}

// GroundTruth is the pre-measured test dataset of one benchmark (§7.1): a
// pool of workflow configurations with in-situ measurements, per-component
// standalone measurement sets, and the expert configurations' performance,
// each indexed by objective.
type GroundTruth struct {
	Bench *workflow.Benchmark
	Pool  []cfgspace.Config

	// values[obj][i] is pool configuration i's in-situ measurement.
	values [len(objectives)][]float64
	// components[obj][j] is configurable component j's standalone
	// measurement set (the paper's 500 random component configurations);
	// empty for an unconfigurable component, whose solo value is
	// fixed[obj][j].
	components [len(objectives)][][]tuner.Sample
	fixed      [len(objectives)][]float64
	// expert[obj] is b.Expert(obj)'s noiseless measurement (the
	// computer-time expert doubles as the energy expert).
	expert [len(objectives)]float64

	poolIdx *cfgspace.Numbering   // pool position by configuration
	compIdx []*cfgspace.Numbering // per component: set position by configuration

	gridMu sync.Mutex
	grid   map[gridKey][]*AlgStats // the §7 batteries run over this ground truth (cell.grid)
}

// Values returns the pool measurements for an objective.
func (gt *GroundTruth) Values(obj Objective) []float64 { return gt.values[obj] }

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
func (gt *GroundTruth) Expert(obj Objective) float64 { return gt.expert[obj] }

// Lookup returns the pool measurement of cfg under an objective.
func (gt *GroundTruth) Lookup(cfg cfgspace.Config, obj Objective) (float64, error) {
	i, ok := gt.poolIdx.Find(cfg)
	if !ok {
		return 0, fmt.Errorf("paperexp: configuration %v not in the measured pool", cfg)
	}
	return gt.Values(obj)[i], nil
}

// BuildGroundTruth measures a benchmark's pool and component sets on the
// cluster simulator, sized by opt.Pool and opt.ComponentSamples and seeded
// by opt.Seed. Every measurement's noise is keyed to the sample index, so
// the result is byte-for-byte reproducible regardless of opt.Workers.
func BuildGroundTruth(b *workflow.Benchmark, opt Options) (*GroundTruth, error) {
	if opt.Pool < 2 || opt.ComponentSamples < 1 {
		return nil, fmt.Errorf("paperexp: need pool >= 2 and component samples >= 1")
	}
	rng := rand.New(rand.NewPCG(opt.Seed, 0xfeed))
	gt := &GroundTruth{
		Bench:   b,
		Pool:    b.Space.SampleN(rng, opt.Pool),
		compIdx: make([]*cfgspace.Numbering, len(b.Components)),
		grid:    map[gridKey][]*AlgStats{},
	}
	gt.poolIdx = numbered(gt.Pool)
	for _, obj := range objectives {
		gt.components[obj] = make([][]tuner.Sample, len(b.Components))
		gt.fixed[obj] = make([]float64, len(b.Components))
	}
	// The build runs straight on the measurement pool, not through a
	// collector: the noise streams below are keyed to the sample index, not
	// the configuration, so a repeated configuration gets its own
	// independent noise draw and nothing here could ever be a cache hit.
	runner := dispatch.NewRunner(opt.Workers)

	// Measure the workflow pool.
	jobs := make([]func(int) (workflow.Measurement, error), len(gt.Pool))
	for i, cfg := range gt.Pool {
		jobs[i] = func(int) (workflow.Measurement, error) {
			w, err := b.Build(cfg)
			if err != nil {
				return workflow.Measurement{}, err
			}
			noise := rand.New(rand.NewPCG(opt.Seed, 0x1000000+uint64(i)))
			return w.Measure(noise)
		}
	}
	pool, err := dispatch.Do(opt.Ctx, runner.Workers, runner.Retry, jobs)
	if err != nil {
		return nil, fmt.Errorf("paperexp: measure %s pool: %w", b.Name, err)
	}
	for _, obj := range objectives {
		gt.values[obj] = make([]float64, len(pool))
		for i, meas := range pool {
			gt.values[obj][i] = meas.Value(obj)
		}
	}

	// Measure the component sets.
	for j, cs := range b.Components {
		if cs.Space == nil {
			meas, err := workflow.RunSolo(b.Machine, cs.BuildSolo(nil), cs.InBytesPerStep)
			if err != nil {
				return nil, fmt.Errorf("paperexp: measure fixed %s/%s: %w", b.Name, cs.Name, err)
			}
			for _, obj := range objectives {
				gt.fixed[obj][j] = meas.Value(obj)
			}
			continue
		}
		cfgs := cs.Space.SampleN(rng, opt.ComponentSamples)
		jobs := make([]func(int) (workflow.Measurement, error), len(cfgs))
		gt.compIdx[j] = numbered(cfgs)
		for i, cfg := range cfgs {
			jobs[i] = func(int) (workflow.Measurement, error) {
				noise := rand.New(rand.NewPCG(opt.Seed, 0x2000000+uint64(j)<<20+uint64(i)))
				return workflow.MeasureSolo(b.Machine, cs.BuildSolo(cfg), cs.InBytesPerStep, noise)
			}
		}
		solos, err := dispatch.Do(opt.Ctx, runner.Workers, runner.Retry, jobs)
		if err != nil {
			return nil, fmt.Errorf("paperexp: measure %s/%s set: %w", b.Name, cs.Name, err)
		}
		for _, obj := range objectives {
			set := make([]tuner.Sample, len(cfgs))
			for i, cfg := range cfgs {
				set[i] = tuner.Sample{Cfg: cfg, Value: solos[i].Value(obj)}
			}
			gt.components[obj][j] = set
		}
	}

	// Measure the expert configurations (noiseless, deterministic runs).
	for _, obj := range objectives {
		w, err := b.Build(b.Expert(obj))
		if err != nil {
			return nil, fmt.Errorf("paperexp: expert config of %s: %w", b.Name, err)
		}
		meas, err := w.RunInSitu()
		if err != nil {
			return nil, err
		}
		gt.expert[obj] = meas.Value(obj)
	}
	return gt, nil
}

// numbered indexes distinct configurations (SampleN draws no repeats): each
// one's number is its position.
func numbered(cfgs []cfgspace.Config) *cfgspace.Numbering {
	nb := cfgspace.NewNumbering(len(cfgs), func(id int32) []int { return cfgs[id] })
	for _, cfg := range cfgs {
		nb.ID(cfg)
	}
	return nb
}
