package apps

import (
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// Workflow GP couples four components (§7.1): the Gray-Scott
// reaction-diffusion simulation streams its field every step both to a PDF
// calculator and to the serial G-Plot visualizer; the PDF calculator's
// histograms stream to the serial P-Plot visualizer. G-Plot and P-Plot are
// not configurable; G-Plot is the workflow's bottleneck (97 s alone in the
// paper), which is why many GP configurations tie (Table 2 note).

// GPSteps is the number of coupling steps in one GP run.
const GPSteps = 50

// Calibration constants for the GP kernels.
const (
	grayScottWorkCoreSec = 70.0
	grayScottMemPerCore  = 4e9
	GrayScottStepBytes   = 128 * 128 * 128 * 8 * 2 // u and v fields

	pdfWorkCoreSec = 8.0
	pdfMemPerCore  = 5e9
	PDFStepBytes   = 1e6 // histogram payload

	// gplotStepSec * GPSteps = 97 s, the paper's solo G-Plot time.
	gplotStepSec = 1.94
	pplotStepSec = 0.30
)

// GrayScottSpace returns Gray-Scott's parameter space of Table 1.
func GrayScottSpace() *cfgspace.Space { return layoutSpace(1085, 1, 32) }

// NewGrayScott instantiates Gray-Scott with cfg = [procs, ppn].
func NewGrayScott(m cluster.Machine, cfg cfgspace.Config) *Component {
	l := ProcsLayout(cfg)
	s := scaling{
		workCoreSec: grayScottWorkCoreSec,
		serialSec:   0.010,
		memPerCore:  grayScottMemPerCore,
		commAlpha:   0.008,
		commBeta:    0.0015,
		imbAmp:      0.12,
		imbExp:      1.3,
	}
	t := s.stepTime(m, l)
	return &Component{
		Name:     "grayscott",
		Layout:   l,
		Steps:    GPSteps,
		StepTime: func(int) float64 { return t },
		OutBytes: GrayScottStepBytes,
		EmitPerChunk: func(b float64) float64 {
			return packCost(m, b, 1.5e-3)
		},
	}
}

// PDFSpace returns the PDF calculator's parameter space of Table 1.
func PDFSpace() *cfgspace.Space {
	return &cfgspace.Space{
		Params: []cfgspace.Param{
			cfgspace.NewParam("procs", 1, 512),
			cfgspace.NewParam("ppn", 1, 35),
		},
		Valid: func(c cfgspace.Config) bool { return ProcsLayout(c).Nodes() <= 32 },
	}
}

// NewPDFCalc instantiates the PDF calculator with cfg = [procs, ppn].
func NewPDFCalc(m cluster.Machine, cfg cfgspace.Config) *Component {
	l := ProcsLayout(cfg)
	s := scaling{
		workCoreSec: pdfWorkCoreSec,
		serialSec:   0.005,
		memPerCore:  pdfMemPerCore,
		commAlpha:   0.003,
		imbAmp:      0.05,
		imbExp:      1.0,
	}
	t := s.stepTime(m, l)
	return &Component{
		Name:     "pdfcalc",
		Layout:   l,
		Steps:    GPSteps,
		StepTime: func(int) float64 { return t },
		OutBytes: PDFStepBytes,
		EmitPerChunk: func(b float64) float64 {
			return packCost(m, b, 0.5e-3)
		},
		IngestPerChunk: func(b float64) float64 {
			return packCost(m, b, 0.5e-3)
		},
	}
}

// NewGPlot instantiates the serial, unconfigurable G-Plot visualizer.
func NewGPlot(m cluster.Machine) *Component {
	return &Component{
		Name:     "gplot",
		Layout:   SerialLayout(nil),
		Steps:    GPSteps,
		StepTime: func(int) float64 { return gplotStepSec },
		IngestPerChunk: func(b float64) float64 {
			return packCost(m, b, 0.5e-3)
		},
	}
}

// NewPPlot instantiates the serial, unconfigurable P-Plot visualizer.
func NewPPlot(m cluster.Machine) *Component {
	return &Component{
		Name:     "pplot",
		Layout:   SerialLayout(nil),
		Steps:    GPSteps,
		StepTime: func(int) float64 { return pplotStepSec },
		IngestPerChunk: func(b float64) float64 {
			return packCost(m, b, 0.5e-3)
		},
	}
}
