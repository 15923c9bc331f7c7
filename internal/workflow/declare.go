package workflow

import (
	"fmt"
	"slices"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/score"
)

// ComponentSpec declares one component application of a benchmark
// workflow: its own parameter space (nil for unconfigurable components like
// G-Plot), the process layout a sub-configuration means, and how to
// instantiate it for a measurement.
type ComponentSpec struct {
	Name string
	// Space is the component's own parameter space, nil if unconfigurable.
	Space *cfgspace.Space
	// Layout is the process layout of a sub-configuration (empty for an
	// unconfigurable component). It is pure: the allocation rule, features
	// and reserved cores read it without instantiating the component.
	Layout func(cfg cfgspace.Config) apps.Layout
	// BuildSolo instantiates the component from its sub-configuration as it
	// runs standalone; Benchmark.Build couples the instances.
	BuildSolo func(cfg cfgspace.Config) *apps.Component
	// InBytesPerStep is the PFS input the component consumes per step when
	// run solo (what an upstream would have streamed to it).
	InBytesPerStep float64
}

// coder declares the component's feature columns: its parameters, then the
// derived layout quantities performance depends on — the node count, in
// [1, maxNodes], and the active threads (procs × threads), in [1, their
// value at the space's top corner]. Active threads is left out where it is
// a parameter at that corner, where a product of parameters exceeds each
// factor unless every other factor is 1. Any practitioner would encode
// this domain knowledge; it is shared by every algorithm.
func (cs ComponentSpec) coder(maxNodes int) *cfgspace.Coder {
	d := cs.Dim()
	top := make(cfgspace.Config, d)
	for i, p := range cs.Space.Params {
		top[i] = p.Max
	}
	l := cs.Layout(top)
	threads := l.Procs * l.Threads
	twin := slices.Contains(top, threads)
	cols := append(slices.Clone(cs.Space.Params), cfgspace.NewParam("nodes", 1, maxNodes))
	if !twin {
		cols = append(cols, cfgspace.NewParam("activeThreads", 1, threads))
	}
	return cfgspace.NewCoder(cols, func(cfg cfgspace.Config, dst []int) {
		copy(dst, cfg)
		l := cs.Layout(cfg)
		dst[d] = l.Nodes()
		if !twin {
			dst[d+1] = l.Procs * l.Threads
		}
	})
}

// Dim returns the number of parameters the component contributes to the
// workflow configuration.
func (cs ComponentSpec) Dim() int {
	if cs.Space == nil {
		return 0
	}
	return cs.Space.Dim()
}

// Benchmark is a target workflow, declared once — machine, component
// applications, the streams between them, expert configurations; its joint
// space, its feature columns, Build and Sub are derived from the
// declaration.
type Benchmark struct {
	Name       string
	Machine    cluster.Machine
	Components []ComponentSpec
	// Edges are the streams between components in dataflow order: the
	// edges into a component come before the edges out of it.
	Edges []Edge
	// ExpertExec and ExpertComp are the expert-recommended configurations
	// (paper Table 2) for the two optimization objectives.
	ExpertExec cfgspace.Config
	ExpertComp cfgspace.Config
	// Space is the joint configuration space NewBenchmark derives: the
	// components' Table 1 columns side by side, valid where each component's
	// own constraint holds and the layouts fit Machine.MaxAllocNodes. Its
	// feature columns (Space.Coder) are the configurable components'
	// columns in order, then the job's total node count.
	Space *cfgspace.Space
}

// NewBenchmark completes a declared benchmark (every field but Space) by
// deriving its joint configuration space and its feature columns. Each
// configurable component's Space becomes a copy carrying the component's
// columns (the declared space is left as it is). A declaration no run
// could rank-code — a column, declared or derived, of more than
// score.MaxCodes values — panics with an error wrapping
// score.ErrWideColumn that names the column.
func NewBenchmark(decl Benchmark) *Benchmark {
	b := &decl
	b.Components = slices.Clone(b.Components)
	maxNodes := b.Machine.MaxAllocNodes
	var parts []cfgspace.NamedSpace
	for j, cs := range b.Components {
		if cs.Space != nil {
			space := *cs.Space
			space.Coder = cs.coder(maxNodes)
			b.Components[j].Space = &space
			parts = append(parts, cfgspace.NamedSpace{Name: cs.Name, Space: &space})
		}
	}
	b.Space = cfgspace.Concat(func(cfg cfgspace.Config) bool {
		return b.nodes(cfg) <= maxNodes
	}, parts...)
	joint := b.Space.Coder
	b.Space.Coder = cfgspace.NewCoder(append(slices.Clip(joint.Cols), cfgspace.NewParam("totalNodes", 1, maxNodes)),
		func(cfg cfgspace.Config, dst []int) {
			joint.Ints(cfg, dst[:len(dst)-1])
			dst[len(dst)-1] = b.nodes(cfg)
		})
	for _, c := range b.Space.Coder.Cols {
		if c.Count() > score.MaxCodes {
			panic(fmt.Errorf("%w: benchmark %s declares feature %s with %d values, more than %d", score.ErrWideColumn, b.Name, c.Name, c.Count(), score.MaxCodes))
		}
	}
	return b
}

// nodes returns the allocation a joint configuration asks for: components
// occupy disjoint node sets.
func (b *Benchmark) nodes(cfg cfgspace.Config) int {
	n := 0
	for j, cs := range b.Components {
		n += cs.Layout(b.Sub(cfg, j)).Nodes()
	}
	return n
}

// Build instantiates the coupled workflow from a joint configuration: each
// component from its own slice, every consumer running its producer's step
// count.
func (b *Benchmark) Build(cfg cfgspace.Config) (*Workflow, error) {
	if !b.Space.IsValid(cfg) {
		return nil, fmt.Errorf("%s: invalid configuration %v", b.Name, cfg)
	}
	comps := make([]*apps.Component, len(b.Components))
	for j, cs := range b.Components {
		comps[j] = cs.BuildSolo(b.Sub(cfg, j))
	}
	for _, e := range b.Edges {
		comps[e.To].Steps = comps[e.From].Steps
	}
	return &Workflow{Name: b.Name, Machine: b.Machine, Components: comps, Edges: b.Edges}, nil
}

// Expert returns the expert-recommended configuration for an objective. The
// paper's recommendation for computer time doubles as the energy reference
// point (§4 lists energy as an aggregate metric over the same allocation).
func (b *Benchmark) Expert(obj Objective) cfgspace.Config {
	if obj == ExecTime {
		return b.ExpertExec
	}
	return b.ExpertComp
}

// Sub extracts component j's sub-configuration from a joint configuration.
func (b *Benchmark) Sub(cfg cfgspace.Config, j int) cfgspace.Config {
	lo := 0
	for _, cs := range b.Components[:j] {
		lo += cs.Dim()
	}
	return cfg[lo : lo+b.Components[j].Dim()]
}
