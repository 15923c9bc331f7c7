package apps

import (
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// Workflow LV couples the LAMMPS molecular-dynamics simulator with the
// Voro++ Voronoi tessellator. The sample problem follows §7.1: 16 000
// atoms, with per-atom positions and velocities streamed to the tessellator
// every coupling step.

// LVSteps is the number of coupling steps in one LV run.
const LVSteps = 50

// lvAtoms is the simulated particle count (§7.1).
const lvAtoms = 16000

// LVStepBytes is the payload per coupling step: positions + velocities,
// 6 doubles per atom.
const LVStepBytes = lvAtoms * 6 * 8

// Calibration constants for the LV kernels. Values are chosen so that the
// best/expert execution and computer times land in the paper's Table 2
// magnitude range (tens of seconds, a few core-hours); EXPERIMENTS.md
// records the achieved values next to the paper's.
const (
	lammpsWorkCoreSec = 100.0 // MD force work per coupling step
	lammpsThreadFrac  = 0.85
	lammpsMemPerCore  = 2.5e9
	lammpsCommAlpha   = 0.010
	lammpsCommBeta    = 0.0020
	lammpsImbAmp      = 0.15
	lammpsImbExp      = 1.5

	voroWorkCoreSec = 30.0 // tessellation work per coupling step
	voroThreadFrac  = 0.92
	voroMemPerCore  = 5e9
	voroCommAlpha   = 0.004
	voroCommBeta    = 0.0010
	voroImbAmp      = 0.10
	voroImbExp      = 1.2
)

// LAMMPSSpace returns the LAMMPS parameter space of Table 1.
func LAMMPSSpace() *cfgspace.Space { return layoutSpace(1085, 4, 32) }

// NewLAMMPS instantiates LAMMPS with cfg = [procs, ppn, threads].
func NewLAMMPS(m cluster.Machine, cfg cfgspace.Config) *Component {
	l := ProcsLayout(cfg)
	s := scaling{
		workCoreSec: lammpsWorkCoreSec,
		serialSec:   0.002,
		threadFrac:  lammpsThreadFrac,
		memPerCore:  lammpsMemPerCore,
		commAlpha:   lammpsCommAlpha,
		commBeta:    lammpsCommBeta,
		imbAmp:      lammpsImbAmp,
		imbExp:      lammpsImbExp,
	}
	t := s.stepTime(m, l)
	return &Component{
		Name:     "lammps",
		Layout:   l,
		Steps:    LVSteps,
		StepTime: func(int) float64 { return t },
		OutBytes: LVStepBytes,
		EmitPerChunk: func(b float64) float64 {
			return packCost(m, b, 1.5e-3)
		},
	}
}

// VoroSpace returns the Voro++ parameter space of Table 1.
func VoroSpace() *cfgspace.Space { return layoutSpace(1085, 4, 32) }

// NewVoro instantiates Voro++ with cfg = [procs, ppn, threads].
func NewVoro(m cluster.Machine, cfg cfgspace.Config) *Component {
	l := ProcsLayout(cfg)
	s := scaling{
		workCoreSec: voroWorkCoreSec,
		serialSec:   0.005,
		threadFrac:  voroThreadFrac,
		memPerCore:  voroMemPerCore,
		commAlpha:   voroCommAlpha,
		commBeta:    voroCommBeta,
		imbAmp:      voroImbAmp,
		imbExp:      voroImbExp,
	}
	t := s.stepTime(m, l)
	return &Component{
		Name:     "voro",
		Layout:   l,
		Steps:    LVSteps,
		StepTime: func(int) float64 { return t },
		IngestPerChunk: func(b float64) float64 {
			return packCost(m, b, 0.5e-3)
		},
	}
}
