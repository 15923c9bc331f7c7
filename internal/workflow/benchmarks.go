package workflow

import (
	"fmt"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// ComponentSpec describes one component application of a benchmark
// workflow: its own parameter space (nil for unconfigurable components like
// G-Plot) and how to instantiate it for a standalone measurement run.
type ComponentSpec struct {
	Name string
	// Space is the component's own parameter space, nil if unconfigurable.
	Space *cfgspace.Space
	// BuildSolo instantiates the component from its sub-configuration for a
	// solo run (cfg is empty for unconfigurable components).
	BuildSolo func(cfg cfgspace.Config) *apps.Component
	// InBytesPerStep is the PFS input the component consumes per step when
	// run solo (what an upstream would have streamed to it).
	InBytesPerStep float64
}

// Features returns the component's ML feature vector for a
// sub-configuration: the raw parameters enriched with the derived layout
// quantities (node count, active threads, reserved cores) that performance
// actually depends on. Any practitioner tuning these systems would encode
// this domain knowledge; it is shared by every algorithm.
func (cs ComponentSpec) Features(m cluster.Machine, cfg cfgspace.Config) []float64 {
	return cs.appendFeatures(make([]float64, 0, len(cfg)+derivedFeatures), m, cfg)
}

// derivedFeatures is how many layout quantities Features adds to the raw
// parameters.
const derivedFeatures = 3

// appendFeatures appends the component's feature vector to f.
func (cs ComponentSpec) appendFeatures(f []float64, m cluster.Machine, cfg cfgspace.Config) []float64 {
	for _, v := range cfg {
		f = append(f, float64(v))
	}
	l := cs.BuildSolo(cfg).Layout
	nodes := l.Nodes()
	return append(f, float64(nodes), float64(l.Procs*l.Threads), float64(nodes*m.CoresPerNode))
}

// Dim returns the number of parameters the component contributes to the
// workflow configuration.
func (cs ComponentSpec) Dim() int {
	if cs.Space == nil {
		return 0
	}
	return cs.Space.Dim()
}

// Benchmark is one of the paper's target workflows: a workflow
// configuration space plus builders for the coupled workflow and for each
// component standalone.
type Benchmark struct {
	Name       string
	Machine    cluster.Machine
	Components []ComponentSpec
	// Space is the workflow's joint configuration space (Table 1 columns
	// concatenated, with per-component and joint allocation constraints).
	Space *cfgspace.Space
	// Build instantiates the coupled workflow from a joint configuration.
	Build func(cfg cfgspace.Config) (*Workflow, error)
	// ExpertExec and ExpertComp are the expert-recommended configurations
	// (paper Table 2) for the two optimization objectives.
	ExpertExec cfgspace.Config
	ExpertComp cfgspace.Config
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
		names = append(names,
			cs.Name+".nodes", cs.Name+".activeThreads", cs.Name+".reservedCores")
	}
	return append(names, "totalNodes")
}

// Features returns the workflow-level ML feature vector: every component's
// enriched features plus the job's total node count.
func (b *Benchmark) Features(cfg cfgspace.Config) []float64 {
	width := 1
	for _, cs := range b.Components {
		if cs.Space != nil {
			width += cs.Dim() + derivedFeatures
		}
	}
	f := make([]float64, 0, width)
	total := 0.0
	lo := 0
	for _, cs := range b.Components {
		if cs.Space == nil {
			total++ // serial component on its own node
			continue
		}
		f = cs.appendFeatures(f, b.Machine, cfg[lo:lo+cs.Dim()])
		lo += cs.Dim()
		total += f[len(f)-derivedFeatures] // node count of this component
	}
	return append(f, total)
}

// SoloStageWriteSteps is the representative step count used when measuring
// Stage Write standalone: its in-workflow step count is set by the upstream
// Heat Transfer's "# outputs" parameter, which a standalone measurement
// cannot know — a real source of low-fidelity-model error.
const SoloStageWriteSteps = 16

// LV returns the LAMMPS + Voro++ benchmark (§7.1).
func LV(m cluster.Machine) *Benchmark {
	lmpSpace, voroSpace := apps.LAMMPSSpace(), apps.VoroSpace()
	joint := func(c cfgspace.Config) bool {
		return cluster.NodesFor(c[0], c[1])+cluster.NodesFor(c[3], c[4]) <= m.MaxAllocNodes
	}
	b := &Benchmark{
		Name:    "LV",
		Machine: m,
		Components: []ComponentSpec{
			{
				Name:      "lammps",
				Space:     lmpSpace,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component { return apps.NewLAMMPS(m, cfg) },
			},
			{
				Name:           "voro",
				Space:          voroSpace,
				BuildSolo:      func(cfg cfgspace.Config) *apps.Component { return apps.NewVoro(m, cfg) },
				InBytesPerStep: apps.LVStepBytes,
			},
		},
		Space: cfgspace.Concat(joint,
			cfgspace.NamedSpace{Name: "lammps", Space: lmpSpace},
			cfgspace.NamedSpace{Name: "voro", Space: voroSpace},
		),
		ExpertExec: cfgspace.Config{288, 18, 2, 288, 18, 2},
		ExpertComp: cfgspace.Config{18, 18, 2, 18, 18, 2},
	}
	b.Build = func(cfg cfgspace.Config) (*Workflow, error) {
		if !b.Space.IsValid(cfg) {
			return nil, fmt.Errorf("LV: invalid configuration %v", cfg)
		}
		return &Workflow{
			Name:    "LV",
			Machine: m,
			Components: []*apps.Component{
				apps.NewLAMMPS(m, b.Sub(cfg, 0)),
				apps.NewVoro(m, b.Sub(cfg, 1)),
			},
			Edges: []Edge{{From: 0, To: 1}},
		}, nil
	}
	return b
}

// HS returns the Heat Transfer + Stage Write benchmark (§7.1).
func HS(m cluster.Machine) *Benchmark {
	heatSpace, swSpace := apps.HeatSpace(), apps.StageWriteSpace()
	joint := func(c cfgspace.Config) bool {
		return cluster.NodesFor(c[0]*c[1], c[2])+cluster.NodesFor(c[5], c[6]) <= m.MaxAllocNodes
	}
	b := &Benchmark{
		Name:    "HS",
		Machine: m,
		Components: []ComponentSpec{
			{
				Name:      "heat",
				Space:     heatSpace,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component { return apps.NewHeatTransfer(m, cfg) },
			},
			{
				Name:  "stagewrite",
				Space: swSpace,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component {
					return apps.NewStageWrite(m, cfg, SoloStageWriteSteps)
				},
				InBytesPerStep: apps.HeatStepBytes,
			},
		},
		Space: cfgspace.Concat(joint,
			cfgspace.NamedSpace{Name: "heat", Space: heatSpace},
			cfgspace.NamedSpace{Name: "stagewrite", Space: swSpace},
		),
		ExpertExec: cfgspace.Config{32, 17, 34, 4, 20, 560, 35},
		ExpertComp: cfgspace.Config{8, 4, 32, 4, 20, 35, 35},
	}
	b.Build = func(cfg cfgspace.Config) (*Workflow, error) {
		if !b.Space.IsValid(cfg) {
			return nil, fmt.Errorf("HS: invalid configuration %v", cfg)
		}
		heat := apps.NewHeatTransfer(m, b.Sub(cfg, 0))
		sw := apps.NewStageWrite(m, b.Sub(cfg, 1), heat.Steps)
		return &Workflow{
			Name:       "HS",
			Machine:    m,
			Components: []*apps.Component{heat, sw},
			Edges:      []Edge{{From: 0, To: 1}},
		}, nil
	}
	return b
}

// GP returns the Gray-Scott + PDF calculator + G-Plot + P-Plot benchmark
// (§7.1). The paper's expert tuple lists 525 processes for the PDF
// calculator, above its own space's maximum of 512; we clamp to 512.
func GP(m cluster.Machine) *Benchmark {
	gsSpace, pdfSpace := apps.GrayScottSpace(), apps.PDFSpace()
	joint := func(c cfgspace.Config) bool {
		// Two serial plotters occupy one node each.
		return cluster.NodesFor(c[0], c[1])+cluster.NodesFor(c[2], c[3])+2 <= m.MaxAllocNodes
	}
	b := &Benchmark{
		Name:    "GP",
		Machine: m,
		Components: []ComponentSpec{
			{
				Name:      "grayscott",
				Space:     gsSpace,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component { return apps.NewGrayScott(m, cfg) },
			},
			{
				Name:           "pdfcalc",
				Space:          pdfSpace,
				BuildSolo:      func(cfg cfgspace.Config) *apps.Component { return apps.NewPDFCalc(m, cfg) },
				InBytesPerStep: apps.GrayScottStepBytes,
			},
			{
				Name:           "gplot",
				BuildSolo:      func(cfgspace.Config) *apps.Component { return apps.NewGPlot(m) },
				InBytesPerStep: apps.GrayScottStepBytes,
			},
			{
				Name:           "pplot",
				BuildSolo:      func(cfgspace.Config) *apps.Component { return apps.NewPPlot(m) },
				InBytesPerStep: apps.PDFStepBytes,
			},
		},
		Space: cfgspace.Concat(joint,
			cfgspace.NamedSpace{Name: "grayscott", Space: gsSpace},
			cfgspace.NamedSpace{Name: "pdfcalc", Space: pdfSpace},
		),
		ExpertExec: cfgspace.Config{525, 35, 512, 35},
		ExpertComp: cfgspace.Config{35, 35, 35, 35},
	}
	b.Build = func(cfg cfgspace.Config) (*Workflow, error) {
		if !b.Space.IsValid(cfg) {
			return nil, fmt.Errorf("GP: invalid configuration %v", cfg)
		}
		return &Workflow{
			Name:    "GP",
			Machine: m,
			Components: []*apps.Component{
				apps.NewGrayScott(m, b.Sub(cfg, 0)),
				apps.NewPDFCalc(m, b.Sub(cfg, 1)),
				apps.NewGPlot(m),
				apps.NewPPlot(m),
			},
			Edges: []Edge{
				{From: 0, To: 1}, // field -> PDF calculator
				{From: 0, To: 2}, // field -> G-Plot
				{From: 1, To: 3}, // histogram -> P-Plot
			},
		}, nil
	}
	return b
}

// Benchmarks returns all three paper workflows on machine m.
func Benchmarks(m cluster.Machine) []*Benchmark {
	return []*Benchmark{LV(m), HS(m), GP(m)}
}

// ByName returns the named benchmark (LV, HS, or GP).
func ByName(m cluster.Machine, name string) (*Benchmark, error) {
	for _, b := range Benchmarks(m) {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workflow: unknown benchmark %q (want LV, HS, or GP)", name)
}
