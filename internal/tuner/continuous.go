package tuner

import (
	"fmt"
	"slices"

	"ceal/internal/cfgspace"
	"ceal/internal/drift"
	"ceal/internal/tuner/events"
)

// Continuous is the online-retuning driver: tune once, then keep the run
// alive. It is itself an Algorithm over one Problem — recorded,
// checkpointed, resumed and replayed like any other — wrapping another
// Algorithm (the shared Loop engine underneath) with the monitor / detect /
// re-explore cycle of on-line autotuners:
//
//  1. an initial tuning run through the drift environment produces the
//     incumbent configuration;
//  2. the incumbent is probed at a fixed cadence (virtual time passes
//     between probes — the production workflow running);
//  3. a drift.Detector compares each probe against the incumbent's value
//     at (re)convergence; on a confirmed drift the driver re-explores with
//     a bounded budget, warm-started from the previous epoch's
//     measurements (PR 6's transfer-learning path), and re-anchors;
//  4. every probe charges regret against an oracle: the best value over a
//     tracked configuration set at the *current* platform condition.
//
// With a constant (no-drift) profile the detector never fires: the
// incumbent's probes reproduce its measured value exactly (evaluator noise
// is keyed per configuration), so the residual is identically zero, no
// re-exploration happens, and Final is the initial result itself —
// byte-for-byte what a plain run of the wrapped algorithm produces.
type Continuous struct {
	// Algorithm runs every tuning epoch (initial and re-explorations).
	Algorithm Algorithm
	// Problem is the session's one problem — pool sampled and coded
	// once — whose Dispatcher is the *drift.Env the driver also probes
	// between epochs. Every epoch tunes it: the driver forgets its
	// collector's cache first (a value measured under one platform
	// condition must not be served under another; the counters run on) and
	// sets its Warm. Its Ctx cancels the session and its Observer receives
	// the continuous-mode events (probe, drift, re-exploration) in addition
	// to each epoch's run events.
	Problem *Problem
	// Opts tunes the monitoring cadence and re-exploration.
	Opts ContinuousOptions
}

// Name implements Algorithm: a session is named for what tunes its epochs.
func (c *Continuous) Name() string { return c.Algorithm.Name() }

// ContinuousOptions parameterizes a Continuous driver; zero values select
// the defaults documented per field.
type ContinuousOptions struct {
	// Probes is the number of monitoring probes after initial convergence
	// (default 60).
	Probes int
	// Horizon, when positive, ends monitoring once the virtual clock
	// reaches it (whichever of Probes/Horizon hits first). A common clock
	// horizon is what makes regret comparable across arms whose reactions
	// consume different amounts of virtual time.
	Horizon float64
	// ProbeInterval is the virtual time (units) that passes between probes
	// — production time during which the platform keeps drifting (default 4).
	ProbeInterval float64
	// MaxEpochs bounds re-exploration epochs: 0 selects the default (4),
	// negative disables retuning entirely — the "tune once" arm, which
	// still probes and accounts regret but never reacts.
	MaxEpochs int
	// ReexploreBudget is the measurement budget per re-exploration epoch;
	// 0 selects max(10, budget/2) of the initial budget.
	ReexploreBudget int
	// OracleCfgs is the configuration set scanned (without advancing the
	// clock) for the per-probe oracle best. Empty disables regret
	// accounting (Regret stays 0).
	OracleCfgs []cfgspace.Config
}

// The drift trigger: a probe whose relative residual against the
// incumbent's anchored value reaches driftThreshold is suspect, and
// driftConfirm suspect probes in a row confirm drift. A known-good
// configuration must beat the drifted incumbent by the same margin to be
// switched back to.
const (
	driftThreshold = 0.15
	driftConfirm   = 3
)

// withDefaults fills unset options given the initial budget.
func (o ContinuousOptions) withDefaults(budget int) ContinuousOptions {
	if o.Probes <= 0 {
		o.Probes = 60
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 4
	}
	if o.MaxEpochs == 0 {
		o.MaxEpochs = 4
	}
	if o.ReexploreBudget <= 0 {
		o.ReexploreBudget = budget / 2
		if o.ReexploreBudget < 10 {
			o.ReexploreBudget = 10
		}
	}
	return o
}

// ContinuousEpoch summarizes one re-exploration.
type ContinuousEpoch struct {
	// Probe is the probe index whose confirmation triggered the epoch.
	Probe int `json:"probe"`
	// ClockStart / ClockEnd bracket the re-exploration in virtual time.
	ClockStart float64 `json:"clock_start"`
	ClockEnd   float64 `json:"clock_end"`
	// Measurements is the epoch's workflow-measurement count.
	Measurements int `json:"measurements"`
	// BestValue is the epoch's re-converged incumbent value (the new
	// detector baseline).
	BestValue float64 `json:"best_value"`
}

// ContinuousResult is a continuous run's outcome.
type ContinuousResult struct {
	// Initial is the first epoch's result; Final is the last epoch's (the
	// same pointer when no drift was ever confirmed).
	Initial *Result `json:"-"`
	Final   *Result `json:"-"`
	// Epochs describe each re-exploration, in order.
	Epochs []ContinuousEpoch `json:"epochs,omitempty"`
	// Probes is how many monitoring probes ran; Retunes how many
	// re-explorations they triggered. Switchbacks counts confirmed drifts
	// resolved by re-probing a previously adopted incumbent instead of
	// spending a re-exploration epoch.
	Probes      int `json:"probes"`
	Retunes     int `json:"retunes"`
	Switchbacks int `json:"switchbacks,omitempty"`
	// CumulativeRegret integrates regret over virtual time: each probe
	// charges (incumbent value - oracle best at the probe's condition),
	// clamped at zero, times the interval since the previous accounting
	// point; re-exploration intervals are charged at the gap measured when
	// the drift was confirmed (metric units x time units).
	CumulativeRegret float64 `json:"cumulative_regret"`
	// ReexploreCost is the summed measured cost of all re-exploration
	// epochs — the price paid for reacting, reported separately so regret
	// comparisons against tune-once stay honest.
	ReexploreCost float64 `json:"reexplore_cost"`
	// FinalClock is the virtual time when monitoring ended.
	FinalClock float64 `json:"final_clock"`
	// Incumbent is the configuration held when monitoring ended (which may
	// come from the trusted-incumbent portfolio rather than Final.Best),
	// and IncumbentValue its measured value at the final platform
	// condition.
	Incumbent      cfgspace.Config `json:"incumbent,omitempty"`
	IncumbentValue float64         `json:"incumbent_value,omitempty"`
}

// Run is Tune over the session's own Problem, returning the summary.
func (c *Continuous) Run(budget int) (*ContinuousResult, error) {
	res, err := c.Tune(c.Problem, budget)
	if err != nil {
		return nil, err
	}
	return res.Continuous, nil
}

// Tune implements Algorithm: the continuous cycle — initial tune, then
// Opts.Probes monitoring probes with drift-triggered re-exploration — over
// p, which must measure through a *drift.Env. It returns the last epoch's
// Result with the session summary on its Continuous field.
func (c *Continuous) Tune(p *Problem, budget int) (*Result, error) {
	env, ok := p.Dispatcher.(*drift.Env)
	if c.Algorithm == nil || !ok {
		return nil, fmt.Errorf("tuner: Continuous needs an Algorithm and a Problem dispatching to a *drift.Env")
	}
	ctx := p.context()
	opts := c.Opts.withDefaults(budget)
	// Continuous-mode events reach the problem's observer the way run
	// events do (observer panics isolated).
	emit := (&State{obs: p.Observer}).Emit

	initial, err := c.tuneEpoch(p, nil, budget)
	if err != nil {
		return nil, err
	}
	res := &ContinuousResult{Initial: initial, Final: initial}
	incumbent := initial.Best
	prev := initial

	det := drift.NewDetector(driftThreshold, driftConfirm)
	base, err := env.Probe(ctx, incumbent)
	if err != nil {
		return nil, err
	}
	det.Reset(base)

	// portfolio holds every incumbent the run has trusted so far. On a
	// confirmed worsening drift these are re-probed before a re-exploration
	// epoch is spent: on profiles that revisit earlier conditions
	// (oscillations, departing neighbor jobs) the right response is usually
	// a configuration the run has already measured.
	portfolio := []cfgspace.Config{incumbent}
	rememberIncumbent := func(cfg cfgspace.Config) {
		for _, pc := range portfolio {
			if slices.Equal(pc, cfg) {
				return
			}
		}
		portfolio = append(portfolio, cfg)
	}

	lastClock := env.Clock()
	for probe := 0; probe < opts.Probes; probe++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.Horizon > 0 && env.Clock() >= opts.Horizon {
			break
		}
		env.Advance(opts.ProbeInterval)
		v, err := env.Probe(ctx, incumbent)
		if err != nil {
			return nil, err
		}
		res.Probes++

		gap := 0.0
		if len(opts.OracleCfgs) > 0 {
			oracle, _, err := env.PeekBest(ctx, opts.OracleCfgs)
			if err != nil {
				return nil, err
			}
			if gap = v - oracle; gap < 0 {
				gap = 0
			}
		}
		clock := env.Clock()
		regret := gap * (clock - lastClock)
		lastClock = clock
		res.CumulativeRegret += regret

		verdict, residual := det.Observe(v)
		emit(&events.ProbeMeasured{
			Probe: probe, Clock: clock, Value: v,
			Baseline: det.Baseline(), Residual: residual, Regret: regret,
		})
		switch verdict {
		case drift.Suspected:
			emit(&events.DriftSuspected{Probe: probe, Clock: clock, Residual: residual})
		case drift.Confirmed:
			epoch := res.Retunes + 1
			emit(&events.DriftConfirmed{Probe: probe, Clock: clock, Residual: residual, Epoch: epoch})
			if opts.MaxEpochs < 0 || res.Retunes >= opts.MaxEpochs {
				// Tune-once arm (or epochs exhausted): keep probing the
				// stale incumbent and let regret accumulate. Re-anchor the
				// detector to the drifted value so a *further* drift is
				// still reported rather than the same one over and over.
				det.Reset(v)
				continue
			}
			if len(portfolio) > 1 {
				// Revert-to-known-good: re-probe the other trusted
				// incumbents (real measurements — the clock advances) and
				// switch back if one recovers meaningfully, saving the
				// epoch for drifts no known configuration handles.
				bestV, bestCfg := v, incumbent
				for _, pc := range portfolio {
					if slices.Equal(pc, incumbent) {
						continue
					}
					pv, err := env.Probe(ctx, pc)
					if err != nil {
						return nil, err
					}
					if pv < bestV {
						bestV, bestCfg = pv, pc
					}
				}
				if bestV < v*(1-driftThreshold) {
					incumbent = bestCfg
					det.Reset(bestV)
					res.Switchbacks++
					end := env.Clock()
					res.CumulativeRegret += gap * (end - clock)
					lastClock = end
					emit(&events.Reconverged{
						Epoch: epoch, Clock: end, DurationUnits: end - clock,
						Measurements: len(portfolio) - 1, BestValue: bestV,
						BestConfig: incumbent.Clone(),
					})
					continue
				}
			}
			if residual < 0 {
				// The platform got *better* for the incumbent and no known
				// configuration beats it there. Re-anchor rather than
				// re-explore: an improving condition opens no regret gap
				// worth a bounded epoch, and on oscillating profiles
				// spending epochs on the easing half leaves none for the
				// rises that actually hurt.
				det.Reset(v)
				continue
			}
			start := clock
			emit(&events.ReexploreStarted{
				Epoch: epoch, Clock: start, Budget: opts.ReexploreBudget,
				WarmSamples: len(prev.Samples),
			})
			r, err := c.tuneEpoch(p, prev, opts.ReexploreBudget)
			if err != nil {
				return nil, err
			}
			res.Retunes++
			res.ReexploreCost += r.CollectionCost
			prev, res.Final = r, r

			// Adopt the best currently-known configuration at the
			// post-re-exploration condition — the fresh find competes
			// against every previously trusted incumbent, not just the
			// current one: a bounded, warm-biased search can come back
			// with a worse pick when the platform kept moving during the
			// epoch itself.
			rememberIncumbent(r.Best)
			bestV, err := env.Peek(ctx, incumbent)
			if err != nil {
				return nil, err
			}
			for _, pc := range portfolio {
				pv, err := env.Peek(ctx, pc)
				if err != nil {
					return nil, err
				}
				if pv < bestV {
					bestV, incumbent = pv, pc
				}
			}

			nb, err := env.Probe(ctx, incumbent)
			if err != nil {
				return nil, err
			}
			det.Reset(nb)
			end := env.Clock()
			// The re-exploration interval is production time spent on the
			// stale configuration: charge it at the gap that triggered it.
			res.CumulativeRegret += gap * (end - start)
			lastClock = end
			res.Epochs = append(res.Epochs, ContinuousEpoch{
				Probe: probe, ClockStart: start, ClockEnd: end,
				Measurements: len(r.Samples), BestValue: nb,
			})
			emit(&events.Reconverged{
				Epoch: epoch, Clock: end, DurationUnits: end - start,
				Measurements: len(r.Samples), BestValue: nb,
				BestConfig: incumbent.Clone(),
			})
		}
	}
	res.FinalClock = env.Clock()
	res.Incumbent = incumbent.Clone()
	v, err := env.Peek(ctx, incumbent)
	if err != nil {
		return nil, err
	}
	res.IncumbentValue = v
	final := *res.Final
	final.Continuous = res
	return &final, nil
}

// tuneEpoch runs one tuning epoch of the session's problem through the
// drift environment: the initial one (prev nil) cold, a re-exploration
// warm-started from the previous epoch's measurements. The warm samples
// carry pre-drift values — exactly what a history database would serve — so
// they bias the surrogate toward the old landscape's shape while fresh
// measurements, none of them served from the previous condition's cache,
// correct it.
func (c *Continuous) tuneEpoch(p *Problem, prev *Result, budget int) (*Result, error) {
	p.Collector().Forget()
	p.Warm = nil
	if prev != nil {
		p.Warm = &WarmStart{Samples: prev.Samples, ComponentSamples: prev.ComponentSamples}
	}
	return c.Algorithm.Tune(p, budget)
}
