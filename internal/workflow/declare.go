package workflow

import (
	"fmt"
	"slices"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
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
	// threadsTwin, set by NewBenchmark, marks a layout whose active threads
	// (procs × threads) is one of its parameters, as procs × 1 is.
	threadsTwin bool
}

// Features returns the component's ML feature vector for a
// sub-configuration: the raw parameters enriched with the derived layout
// quantities that performance depends on: the node count and, unless
// NewBenchmark found it a parameter, the active threads. Any practitioner
// would encode this domain knowledge; it is shared by every algorithm.
func (cs ComponentSpec) Features(cfg cfgspace.Config) []float64 {
	return cs.appendFeatures(make([]float64, 0, len(cfg)+2), cfg, cs.Layout(cfg))
}

// appendFeatures appends the feature vector of cfg, whose layout is l, to f.
func (cs ComponentSpec) appendFeatures(f []float64, cfg cfgspace.Config, l apps.Layout) []float64 {
	for _, v := range cfg {
		f = append(f, float64(v))
	}
	if cs.threadsTwin {
		return append(f, float64(l.Nodes()))
	}
	return append(f, float64(l.Nodes()), float64(l.Procs*l.Threads))
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
// space, Build, Features and Sub are derived from the declaration.
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
	// own constraint holds and the layouts fit Machine.MaxAllocNodes.
	Space *cfgspace.Space
	width int // len(FeatureNames()), set by NewBenchmark
}

// NewBenchmark completes a declared benchmark (every field but Space) by
// deriving its joint configuration space and its feature columns.
func NewBenchmark(decl Benchmark) *Benchmark {
	b := &decl
	b.Components = slices.Clone(b.Components)
	var parts []cfgspace.NamedSpace
	for j, cs := range b.Components {
		if cs.Space != nil {
			// Active threads is a parameter if it is one at the space's top
			// corner, where a product of parameters exceeds each factor
			// unless every other factor is 1.
			top := make(cfgspace.Config, cs.Dim())
			for i, p := range cs.Space.Params {
				top[i] = p.Max
			}
			l := cs.Layout(top)
			b.Components[j].threadsTwin = slices.Contains(top, l.Procs*l.Threads)
			parts = append(parts, cfgspace.NamedSpace{Name: cs.Name, Space: cs.Space})
		}
	}
	b.Space = cfgspace.Concat(func(cfg cfgspace.Config) bool {
		return b.nodes(cfg) <= b.Machine.MaxAllocNodes
	}, parts...)
	b.width = len(b.FeatureNames())
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

// FeatureNames labels the vector produced by Features, in order.
func (b *Benchmark) FeatureNames() []string {
	var names []string
	for _, cs := range b.Components {
		if cs.Space == nil {
			continue
		}
		for _, p := range cs.Space.Params {
			names = append(names, cs.Name+"."+p.Name)
		}
		names = append(names, cs.Name+".nodes")
		if !cs.threadsTwin {
			names = append(names, cs.Name+".activeThreads")
		}
	}
	return append(names, "totalNodes")
}

// Features returns the workflow-level ML feature vector: every component's
// enriched features plus the job's total node count.
func (b *Benchmark) Features(cfg cfgspace.Config) []float64 {
	f := make([]float64, 0, b.width)
	nodes, lo := 0, 0
	for _, cs := range b.Components {
		sub := cfg[lo : lo+cs.Dim()]
		lo += cs.Dim()
		l := cs.Layout(sub)
		nodes += l.Nodes()
		if cs.Space != nil {
			f = cs.appendFeatures(f, sub, l)
		}
	}
	return append(f, float64(nodes))
}
