package workflow

import (
	"fmt"
	"sync"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// SoloStageWriteSteps is the representative step count used when measuring
// Stage Write standalone: its in-workflow step count is set by the upstream
// Heat Transfer's "# outputs" parameter, which a standalone measurement
// cannot know — a real source of low-fidelity-model error.
const SoloStageWriteSteps = 16

// LV returns the LAMMPS + Voro++ benchmark (§7.1).
func LV(m cluster.Machine) *Benchmark { return NewBenchmark(lv(m)) }

func lv(m cluster.Machine) Benchmark {
	return Benchmark{
		Name:    "LV",
		Machine: m,
		Components: []ComponentSpec{
			{
				Name:      "lammps",
				Space:     apps.LAMMPSSpace(),
				Layout:    apps.ProcsLayout,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component { return apps.NewLAMMPS(m, cfg) },
			},
			{
				Name:           "voro",
				Space:          apps.VoroSpace(),
				Layout:         apps.ProcsLayout,
				BuildSolo:      func(cfg cfgspace.Config) *apps.Component { return apps.NewVoro(m, cfg) },
				InBytesPerStep: apps.LVStepBytes,
			},
		},
		Edges:      []Edge{{From: 0, To: 1}},
		ExpertExec: cfgspace.Config{288, 18, 2, 288, 18, 2},
		ExpertComp: cfgspace.Config{18, 18, 2, 18, 18, 2},
	}
}

// HS returns the Heat Transfer + Stage Write benchmark (§7.1).
func HS(m cluster.Machine) *Benchmark { return NewBenchmark(hs(m)) }

func hs(m cluster.Machine) Benchmark {
	return Benchmark{
		Name:    "HS",
		Machine: m,
		Components: []ComponentSpec{
			{
				Name:      "heat",
				Space:     apps.HeatSpace(),
				Layout:    apps.HeatLayout,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component { return apps.NewHeatTransfer(m, cfg) },
			},
			{
				Name:   "stagewrite",
				Space:  apps.StageWriteSpace(),
				Layout: apps.ProcsLayout,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component {
					return apps.NewStageWrite(m, cfg, SoloStageWriteSteps)
				},
				InBytesPerStep: apps.HeatStepBytes,
			},
		},
		Edges:      []Edge{{From: 0, To: 1}},
		ExpertExec: cfgspace.Config{32, 17, 34, 4, 20, 560, 35},
		ExpertComp: cfgspace.Config{8, 4, 32, 4, 20, 35, 35},
	}
}

// GP returns the Gray-Scott + PDF calculator + G-Plot + P-Plot benchmark
// (§7.1). The paper's expert tuple lists 525 processes for the PDF
// calculator, above its own space's maximum of 512; we clamp to 512.
func GP(m cluster.Machine) *Benchmark { return NewBenchmark(gp(m)) }

func gp(m cluster.Machine) Benchmark {
	return Benchmark{
		Name:    "GP",
		Machine: m,
		Components: []ComponentSpec{
			{
				Name:      "grayscott",
				Space:     apps.GrayScottSpace(),
				Layout:    apps.ProcsLayout,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component { return apps.NewGrayScott(m, cfg) },
			},
			{
				Name:           "pdfcalc",
				Space:          apps.PDFSpace(),
				Layout:         apps.ProcsLayout,
				BuildSolo:      func(cfg cfgspace.Config) *apps.Component { return apps.NewPDFCalc(m, cfg) },
				InBytesPerStep: apps.GrayScottStepBytes,
			},
			{
				Name:           "gplot",
				Layout:         apps.SerialLayout,
				BuildSolo:      func(cfgspace.Config) *apps.Component { return apps.NewGPlot(m) },
				InBytesPerStep: apps.GrayScottStepBytes,
			},
			{
				Name:           "pplot",
				Layout:         apps.SerialLayout,
				BuildSolo:      func(cfgspace.Config) *apps.Component { return apps.NewPPlot(m) },
				InBytesPerStep: apps.PDFStepBytes,
			},
		},
		Edges: []Edge{
			{From: 0, To: 1}, // field -> PDF calculator
			{From: 0, To: 2}, // field -> G-Plot
			{From: 1, To: 3}, // histogram -> P-Plot
		},
		ExpertExec: cfgspace.Config{525, 35, 512, 35},
		ExpertComp: cfgspace.Config{35, 35, 35, 35},
	}
}

// paper declares the three paper workflows, in order; Benchmarks, ByName
// and Declared all read it.
var paper = []struct {
	name string
	decl func(cluster.Machine) Benchmark
}{{"LV", lv}, {"HS", hs}, {"GP", gp}}

// Benchmarks returns all three paper workflows on machine m.
func Benchmarks(m cluster.Machine) []*Benchmark {
	bs := make([]*Benchmark, len(paper))
	for i, p := range paper {
		bs[i] = NewBenchmark(p.decl(m))
	}
	return bs
}

// ByName returns the named benchmark (LV, HS, or GP).
func ByName(m cluster.Machine, name string) (*Benchmark, error) {
	for _, p := range paper {
		if p.name == name {
			return NewBenchmark(p.decl(m)), nil
		}
	}
	return nil, fmt.Errorf("workflow: unknown benchmark %q (want LV, HS, or GP)", name)
}

// declared holds each paper workflow's components on cluster.Default(), in
// paper's order, built on first use.
var declared = sync.OnceValue(func() [][]ComponentSpec {
	cs := make([][]ComponentSpec, len(paper))
	for i, p := range paper {
		cs[i] = p.decl(cluster.Default()).Components
	}
	return cs
})

// Declared returns the named benchmark's components (LV, HS or GP; nil for
// another name) as declared on cluster.Default(), without building the
// benchmark: names and spaces, none of NewBenchmark's feature columns.
// Built once, they are shared by every caller, so read-only.
func Declared(name string) []ComponentSpec {
	for i, p := range paper {
		if p.name == name {
			return declared()[i]
		}
	}
	return nil
}
