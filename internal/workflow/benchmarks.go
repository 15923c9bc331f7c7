package workflow

import (
	"fmt"

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
func LV(m cluster.Machine) *Benchmark {
	return NewBenchmark(Benchmark{
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
	})
}

// HS returns the Heat Transfer + Stage Write benchmark (§7.1).
func HS(m cluster.Machine) *Benchmark {
	return NewBenchmark(Benchmark{
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
	})
}

// GP returns the Gray-Scott + PDF calculator + G-Plot + P-Plot benchmark
// (§7.1). The paper's expert tuple lists 525 processes for the PDF
// calculator, above its own space's maximum of 512; we clamp to 512.
func GP(m cluster.Machine) *Benchmark {
	return NewBenchmark(Benchmark{
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
	})
}

// Benchmarks returns all three paper workflows on machine m.
func Benchmarks(m cluster.Machine) []*Benchmark {
	return []*Benchmark{LV(m), HS(m), GP(m)}
}

// ByName returns the named benchmark (LV, HS, or GP).
func ByName(m cluster.Machine, name string) (*Benchmark, error) {
	switch name {
	case "LV":
		return LV(m), nil
	case "HS":
		return HS(m), nil
	case "GP":
		return GP(m), nil
	}
	return nil, fmt.Errorf("workflow: unknown benchmark %q (want LV, HS, or GP)", name)
}
