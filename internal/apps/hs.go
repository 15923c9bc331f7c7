package apps

import (
	"math"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// Workflow HS couples the Heat Transfer mini-app (a 2-D heat-equation
// solver decomposed px-by-py) with Stage Write, which ingests the forwarded
// simulation state and writes it to the parallel file system (§7.1). Heat
// Transfer's "# outputs" parameter sets how many times state is forwarded
// during the run (which is also the coupling-step count), and its buffer
// size parameter sets the staging chunk granularity.

// Calibration constants for the HS kernels.
const (
	heatGridCells    = 2048 * 2048
	heatTotalCoreSec = 1000.0 // whole-run solver work, core-seconds
	heatCommAlphaRun = 0.05   // whole-run latency-bound comm at log2(p)=1
	heatCommBetaRun  = 0.04   // whole-run sync/jitter growth at sqrt(p)=1
	heatMemPerCore   = 6e9    // stencil sweeps are memory-bound
	heatFieldCount   = 3      // fields forwarded per output step
	heatAspectAmp    = 0.15

	stageWriteWorkCoreSec = 8.0 // per-step aggregation work
	stageWriteMemPerCore  = 6e9

	// perProcPFSRate is each rank's achievable PFS client bandwidth.
	perProcPFSRate = 0.15e9
)

// HeatStepBytes is the forwarded payload per output step.
const HeatStepBytes = heatGridCells * 8 * heatFieldCount

// HeatSpace returns Heat Transfer's parameter space of Table 1:
// [procsX, procsY, ppn, outputs, bufferMB].
func HeatSpace() *cfgspace.Space {
	return &cfgspace.Space{
		Params: []cfgspace.Param{
			cfgspace.NewParam("procsX", 2, 32),
			cfgspace.NewParam("procsY", 2, 32),
			cfgspace.NewParam("ppn", 1, 35),
			cfgspace.NewSteppedParam("outputs", 4, 32, 4),
			cfgspace.NewParam("bufferMB", 1, 40),
		},
		Valid: func(c cfgspace.Config) bool { return HeatLayout(c).Nodes() <= 32 },
	}
}

// HeatLayout is Heat Transfer's layout: a procsX-by-procsY decomposition,
// unthreaded.
func HeatLayout(cfg cfgspace.Config) Layout {
	return Layout{Procs: cfg[0] * cfg[1], PPN: cfg[2], Threads: 1}
}

// NewHeatTransfer instantiates Heat Transfer with
// cfg = [procsX, procsY, ppn, outputs, bufferMB].
func NewHeatTransfer(m cluster.Machine, cfg cfgspace.Config) *Component {
	px, py, steps, bufMB := cfg[0], cfg[1], cfg[3], cfg[4]
	l := HeatLayout(cfg)
	s := scaling{
		workCoreSec: heatTotalCoreSec / float64(steps),
		serialSec:   0.001,
		memPerCore:  heatMemPerCore,
		// Per-sweep neighbour exchanges, convergence reductions, and noise
		// amplification, amortized over the run's output steps.
		commAlpha: heatCommAlphaRun / float64(steps),
		commBeta:  heatCommBetaRun / float64(steps),
		imbAmp:    0.10,
		imbExp:    1.3,
	}
	base := s.stepTime(m, l)
	// Non-square decompositions exchange more halo per cell advanced:
	// penalize by the perimeter-to-area ratio relative to a square grid.
	aspect := float64(px+py) / (2 * math.Sqrt(float64(px*py)))
	t := base * (1 + heatAspectAmp*(aspect-1))
	return &Component{
		Name:       "heat",
		Layout:     l,
		Steps:      steps,
		StepTime:   func(int) float64 { return t },
		OutBytes:   HeatStepBytes,
		ChunkBytes: float64(bufMB) * 1e6,
		EmitPerChunk: func(b float64) float64 {
			return packCost(m, b, 2.5e-3)
		},
	}
}

// StageWriteSpace returns Stage Write's parameter space of Table 1.
func StageWriteSpace() *cfgspace.Space { return layoutSpace(1085, 1, 32) }

// NewStageWrite instantiates Stage Write with cfg = [procs, ppn]. steps must
// match the upstream Heat Transfer's output count.
func NewStageWrite(m cluster.Machine, cfg cfgspace.Config, steps int) *Component {
	l := ProcsLayout(cfg)
	s := scaling{
		workCoreSec: stageWriteWorkCoreSec,
		serialSec:   0.002,
		memPerCore:  stageWriteMemPerCore,
		commAlpha:   0.002,
		imbAmp:      0.05,
		imbExp:      1.0,
	}
	t := s.stepTime(m, l)
	return &Component{
		Name:     "stagewrite",
		Layout:   l,
		Steps:    steps,
		StepTime: func(int) float64 { return t },
		IngestPerChunk: func(b float64) float64 {
			return packCost(m, b, 0.5e-3)
		},
		PFSWriteBytes: HeatStepBytes,
	}
}

// PFSCap returns the peak PFS bandwidth a component's layout can drive:
// per-rank client limits up to the allocation's node-level limit.
func PFSCap(m cluster.Machine, l Layout) float64 {
	cap := float64(l.Procs) * perProcPFSRate
	if nodeCap := m.PFSRate(l.Nodes()); cap > nodeCap {
		cap = nodeCap
	}
	return cap
}
