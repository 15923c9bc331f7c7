// Package dispatch is the measurement plane's transport layer: it decides
// *where* a batch of configuration measurements executes, while the
// collector above it keeps deciding *whether* each measurement executes at
// all (cache, single-flight) and the tuning algorithms above that never
// see either.
//
// A Dispatcher takes one batch of Items — workflow or standalone-component
// measurements, each tagged with its batch position — and returns one
// Measurement per item. Items carry explicit sequence numbers so the
// result order is deterministic regardless of arrival order: a dispatcher
// may shard the batch across machines, race retries against worker loss,
// or receive results out of order, and the caller still reassembles the
// batch by Seq. Because every evaluator in this repository is
// deterministic per configuration, *who* measures an item never changes
// its value — which is what makes remote dispatch byte-identical to
// in-process execution at any worker count and across worker failures.
//
// Two implementations ship here:
//
//   - Local runs items on an in-process worker pool over an Evaluator —
//     the single-machine path.
//   - Remote fans the batch out over HTTP to N ceal-worker daemons
//     (cmd/ceal-worker), reassigning a lost worker's shard to the
//     surviving workers.
//
// Both run on the same pool (Do) under the same retry policy (Retry) —
// the roles Swift/T + EMEWS and the MPI_Comm_launch relaunch play in the
// paper's system (§7.1).
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"ceal/internal/cfgspace"
)

// Evaluator measures configurations. Implementations may run the cluster
// simulator directly or look measurements up in a pre-built ground truth.
// Implementations must be safe for concurrent use and deterministic per
// configuration (repeated calls with the same arguments return the same
// value).
type Evaluator interface {
	// MeasureWorkflow returns the optimization metric of one coupled
	// workflow run at cfg (lower is better).
	MeasureWorkflow(cfg cfgspace.Config) (float64, error)
	// MeasureComponent returns the metric of one standalone run of
	// component j at its sub-configuration cfg (nil for unconfigurable
	// components).
	MeasureComponent(j int, cfg cfgspace.Config) (float64, error)
}

// Kind classifies a measurement item.
type Kind string

const (
	// KindWorkflow measures one coupled workflow run.
	KindWorkflow Kind = "workflow"
	// KindComponent measures one standalone component run.
	KindComponent Kind = "component"
)

// Item is one measurement in a batch. Seq is the item's position in the
// batch; dispatchers echo it back so results reassemble deterministically
// whatever order (or worker) they arrive from.
type Item struct {
	Seq  int  `json:"seq"`
	Kind Kind `json:"kind"`
	// Component is the component index for KindComponent items.
	Component int `json:"component,omitempty"`
	// Cfg is the (sub-)configuration to measure; nil marks the solo run of
	// an unconfigurable component.
	Cfg cfgspace.Config `json:"cfg,omitempty"`
}

// Key names the item's measurement within its job: w:<cfg>, c<j>:<cfg>, or
// c<j>:fixed for an unconfigurable component j.
func (it Item) Key() string {
	switch {
	case it.Kind == KindWorkflow:
		return "w:" + it.Cfg.Key()
	case it.Cfg == nil:
		return "c" + strconv.Itoa(it.Component) + ":fixed"
	default:
		return "c" + strconv.Itoa(it.Component) + ":" + it.Cfg.Key()
	}
}

// Measurement is one measured item, tagged with the Seq of the Item it
// answers.
type Measurement struct {
	Seq   int     `json:"seq"`
	Value float64 `json:"value"`
	// Retries counts relaunches this item needed (a failed launch, a lost
	// worker). Purely observational: values are deterministic per
	// configuration, so retries never change results.
	Retries int `json:"retries,omitempty"`
}

// Dispatcher executes measurement batches on some substrate. Dispatch
// returns exactly one Measurement per item (any order; callers index by
// Seq), or an error when the batch could not be completed — partial
// results are never returned. Implementations must be safe for concurrent
// use.
type Dispatcher interface {
	Dispatch(ctx context.Context, batch []Item) ([]Measurement, error)
}

// ErrBadMeasurement marks a value no run can produce (NaN, ±Inf, negative)
// — from a worker or a checkpoint — before it reaches a cache or a clock.
var ErrBadMeasurement = errors.New("dispatch: bad measurement")

// ByIndex validates a dispatcher's response against the batch it answers
// and returns the values in batch order: exactly one measurement per item,
// every Seq known, no ErrBadMeasurement. It is the reassembly step every
// Dispatch caller needs.
func ByIndex(batch []Item, ms []Measurement) ([]float64, []int, error) {
	if len(ms) != len(batch) {
		return nil, nil, fmt.Errorf("dispatch: %d results for %d items", len(ms), len(batch))
	}
	pos := make(map[int]int, len(batch))
	for i, it := range batch {
		pos[it.Seq] = i
	}
	vals := make([]float64, len(batch))
	retries := make([]int, len(batch))
	seen := make(map[int]bool, len(ms))
	for _, m := range ms {
		i, ok := pos[m.Seq]
		if !ok {
			return nil, nil, fmt.Errorf("dispatch: result for unknown seq %d", m.Seq)
		}
		if seen[m.Seq] {
			return nil, nil, fmt.Errorf("dispatch: duplicate result for seq %d", m.Seq)
		}
		if v := m.Value; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, nil, fmt.Errorf("%w: %s = %v", ErrBadMeasurement, batch[i].Key(), v)
		}
		seen[m.Seq] = true
		vals[i] = m.Value
		retries[i] = m.Retries
	}
	return vals, retries, nil
}

// Local executes batches on an in-process worker pool over an Evaluator —
// the single-machine measurement path. The zero value is not usable; set
// Eval (Runner nil means NewRunner(1)).
type Local struct {
	Eval   Evaluator
	Runner *Runner
}

// NewLocal returns a Local dispatcher over eval and runner.
func NewLocal(eval Evaluator, runner *Runner) *Local {
	return &Local{Eval: eval, Runner: runner}
}

// Dispatch implements Dispatcher: one pool job per item, results in batch
// order (Seq echoes the items').
func (l *Local) Dispatch(ctx context.Context, batch []Item) ([]Measurement, error) {
	if l.Eval == nil {
		return nil, fmt.Errorf("dispatch: no evaluator wired")
	}
	r := l.Runner
	if r == nil {
		r = NewRunner(1)
	}
	jobs := make([]func(attempt int) (Measurement, error), len(batch))
	for i := range batch {
		it := batch[i]
		jobs[i] = func(attempt int) (Measurement, error) {
			var v float64
			var err error
			switch it.Kind {
			case KindWorkflow:
				v, err = l.Eval.MeasureWorkflow(it.Cfg)
			case KindComponent:
				v, err = l.Eval.MeasureComponent(it.Component, it.Cfg)
			default:
				err = fmt.Errorf("dispatch: unknown item kind %q", it.Kind)
			}
			return Measurement{Seq: it.Seq, Value: v, Retries: attempt}, err
		}
	}
	return Do(ctx, r.Workers, r.Retry, jobs)
}
