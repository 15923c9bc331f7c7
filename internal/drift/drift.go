// Package drift is the online-retuning substrate: it makes platform drift
// observable and reproducible. Real in-situ workflows run for days while
// the machine changes underneath them — background fabric traffic, neighbor
// jobs arriving and leaving, nodes degrading — so a configuration tuned at
// hour 0 is stale by hour 10.
//
// Two pieces live here:
//
//   - Env is a dispatch.Dispatcher over the measurement plane whose
//     platform condition follows a cluster.Profile along a virtual clock.
//     The clock advances by measurement cost (normalized to a reference
//     configuration's zero-load cost, the time "unit"), so drift unfolds
//     as a deterministic function of what the tuner chose to measure —
//     reproducible per (seed, profile) at any worker count.
//   - Detector is a residual monitor over probe measurements of the
//     incumbent configuration: a relative-residual trigger that escalates
//     None → Suspected → Confirmed over consecutive out-of-band probes. It
//     generalizes the switch detector CEAL Phase-2/3 already uses for
//     model selection.
//
// tuner.Continuous drives both: it tunes once through the Env, then probes
// the incumbent at a cadence, and on a confirmed drift re-explores with a
// bounded, warm-started budget.
//
// The collector above an Env forgets its cache before every epoch
// (collector.Forget) instead of keying it by platform condition: a
// condition-keyed cache would let a later epoch hit a value measured
// earlier at the same condition, which changes the requests that reach
// Env.Dispatch and so how far the clock advances. A resumed session
// replays its dispatch.Journal beneath the Env (Env.Record), which serves
// the checkpoint without changing what the clock sees.
package drift

import (
	"context"
	"fmt"
	"sync"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/collector"
	"ceal/internal/dispatch"
)

// maxAdvancePerItem caps how far one measurement can push the virtual
// clock (in units). Pool configurations vary over orders of magnitude; an
// uncapped pathological config could leap the clock past a profile's whole
// drift window mid-tune, which would make experiment timescales hostage to
// pool sampling.
const maxAdvancePerItem = 10.0

// Env is the time-varying measurement environment: a dispatch.Dispatcher
// decorating the dispatcher of the condition a drift profile reports along a
// virtual clock. The condition is frozen per dispatched batch (measurements
// inside one batch run concurrently on the real machine, so they see one
// platform condition), then the clock advances by the batch's slowest
// normalized cost — making results independent of worker count and batch
// arrival order.
type Env struct {
	// at returns the dispatcher measuring under one condition, in-process or
	// on workers. It must be pure: the same Load yields the same values.
	at      func(ld cluster.Load) (dispatch.Dispatcher, error)
	profile cluster.Profile

	mu    sync.Mutex
	clock float64
	// unit is ref's zero-load cost, measured by the first Dispatch through
	// nominal, the nominal condition's peek collector.
	unit    float64
	ref     cfgspace.Config
	nominal *collector.Collector
	// The current condition only — a session's memory is bounded by one
	// condition however long it monitors: its dispatcher, and the collector
	// memoizing the counterfactual peeks at it (the oracle scan revisits the
	// tracked set at every probe while the condition holds). Both are
	// replaced when the clock reaches another condition.
	load    cluster.Load
	disp    dispatch.Dispatcher
	peek    *collector.Collector
	jr      *dispatch.Journal // set by Record: journals disp, never peek's scans
	retired uint64            // shard resends of the conditions left behind
}

// NewEnv builds an environment over a profile, measuring through at. ref's
// zero-load cost is the clock unit: the first Dispatch measures it, under
// that call's ctx, without advancing the clock.
func NewEnv(at func(ld cluster.Load) (dispatch.Dispatcher, error), profile cluster.Profile, ref cfgspace.Config) (*Env, error) {
	d, err := at(cluster.Load{})
	if err != nil {
		return nil, fmt.Errorf("drift: dispatcher for the nominal condition: %w", err)
	}
	peek := collector.New(d)
	return &Env{at: at, profile: profile, disp: d, peek: peek, ref: ref, nominal: peek}, nil
}

// Clock returns the current virtual time in units.
func (e *Env) Clock() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clock
}

// Advance moves the virtual clock forward by dt units without measuring —
// production time passing between monitoring probes.
func (e *Env) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	e.mu.Lock()
	e.clock += dt
	e.mu.Unlock()
}

// Record journals every condition's batches and probes in jr, beneath the
// clock: a held value is served, and advances the clock all the same.
func (e *Env) Record(jr *dispatch.Journal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jr = jr
	e.disp = jr.Wrap(&e.load, e.disp)
}

// DispatchRetries sums every condition's dispatcher's shard resends.
func (e *Env) DispatchRetries() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.retired + dispatch.Retries(e.disp)
}

// current returns the dispatcher and the peek collector of the condition at
// the current virtual time, replacing the previous condition's.
func (e *Env) current() (dispatch.Dispatcher, *collector.Collector, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ld := e.profile.At(e.clock); ld != e.load {
		d, err := e.at(ld)
		if err != nil {
			return nil, nil, fmt.Errorf("drift: dispatcher under %+v: %w", ld, err)
		}
		e.retired += dispatch.Retries(e.disp)
		e.load, e.disp, e.peek = ld, d, collector.New(d)
		if e.jr != nil {
			e.disp = e.jr.Wrap(&ld, d)
		}
	}
	return e.disp, e.peek, nil
}

// clockUnit returns the clock unit, measuring it on the first Dispatch: a
// failure fails that Dispatch and leaves the clock at 0. Holding mu across
// that one measurement makes concurrent first Dispatches share it.
func (e *Env) clockUnit(ctx context.Context) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.unit == 0 {
		samples, err := e.nominal.MeasureWorkflows(ctx, []cfgspace.Config{e.ref})
		if err != nil {
			return 0, fmt.Errorf("drift: measuring reference configuration: %w", err)
		}
		if samples[0].Value <= 0 {
			return 0, fmt.Errorf("drift: reference configuration cost %g must be positive", samples[0].Value)
		}
		e.unit, e.nominal = samples[0].Value, nil
	}
	return e.unit, nil
}

// Dispatch implements dispatch.Dispatcher: the batch runs under the
// condition frozen at the current clock, then the clock advances by the
// batch's slowest item. Tuning trial runs execute side-by-side on the
// measurement plane, so a batch costs one wave of wall-clock time; the
// advance is a max over normalized item costs, which keeps the clock
// independent of both worker count and completion order.
func (e *Env) Dispatch(ctx context.Context, batch []dispatch.Item) ([]dispatch.Measurement, error) {
	unit, err := e.clockUnit(ctx)
	if err != nil {
		return nil, err
	}
	d, _, err := e.current()
	if err != nil {
		return nil, err
	}
	ms, err := d.Dispatch(ctx, batch)
	if err != nil {
		return nil, err
	}
	vals, _, err := dispatch.ByIndex(batch, ms)
	if err != nil {
		return nil, err
	}
	adv := 0.0
	for _, v := range vals {
		adv = max(adv, min(max(v/unit, 0), maxAdvancePerItem))
	}
	e.mu.Lock()
	e.clock += adv
	e.mu.Unlock()
	return ms, nil
}

// Probe measures one workflow configuration at the current condition and
// advances the clock by its cost — the continuous driver's monitoring
// measurement, a batch of one. It bypasses any collector cache by design: a
// probe exists to observe the platform *now*, not a memoized past. (A
// journal serves only the value this condition gives it anyway.)
func (e *Env) Probe(ctx context.Context, cfg cfgspace.Config) (float64, error) {
	ms, err := e.Dispatch(ctx, []dispatch.Item{{Kind: dispatch.KindWorkflow, Cfg: cfg}})
	if err != nil {
		return 0, err
	}
	return ms[0].Value, nil
}

// Peek measures one configuration at the current condition without
// advancing the clock — counterfactual observation for regret accounting.
func (e *Env) Peek(ctx context.Context, cfg cfgspace.Config) (float64, error) {
	v, _, err := e.PeekBest(ctx, []cfgspace.Config{cfg})
	return v, err
}

// PeekBest returns the best (lowest) value over cfgs at the current
// condition and the first index holding it, without advancing the clock —
// the oracle the continuous driver charges regret against. The scan runs on
// the condition's dispatcher through its collector, so a probe at an
// unchanged condition re-reads it instead of re-measuring. A cancelled ctx
// stops the scan like any other measurement batch.
func (e *Env) PeekBest(ctx context.Context, cfgs []cfgspace.Config) (float64, int, error) {
	if len(cfgs) == 0 {
		return 0, -1, fmt.Errorf("drift: PeekBest needs at least one configuration")
	}
	_, peek, err := e.current()
	if err != nil {
		return 0, -1, err
	}
	samples, err := peek.MeasureWorkflows(ctx, cfgs)
	if err != nil {
		return 0, -1, err
	}
	bestIdx := 0
	for i, s := range samples {
		if s.Value < samples[bestIdx].Value {
			bestIdx = i
		}
	}
	return samples[bestIdx].Value, bestIdx, nil
}
