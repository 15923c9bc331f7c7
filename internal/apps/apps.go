// Package apps models the paper's component applications (§7.1): the
// LAMMPS molecular-dynamics simulator and the Voro++ tessellator (workflow
// LV), the Heat Transfer mini-app and Stage Write I/O forwarder (workflow
// HS), and the Gray-Scott reaction-diffusion simulation with its PDF
// calculator and two serial plotters (workflow GP).
//
// Each application is an analytic performance kernel over the same
// configuration parameters as the paper's Table 1. The kernels encode the
// mechanisms that shape real HPC response surfaces — strong-scaling
// saturation, Amdahl-limited threading, core oversubscription, per-node
// memory-bandwidth contention at high ppn, latency- and bandwidth-bound
// communication, and load imbalance growing with scale — so that the
// auto-tuners face a realistic, concentrated-optimum tuning landscape even
// though the applications themselves are simulated.
package apps

import (
	"math"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// Layout is the process layout of one component application.
type Layout struct {
	Procs   int // total MPI ranks
	PPN     int // ranks per node
	Threads int // threads per rank (1 if the app is unthreaded)
}

// Nodes returns the number of nodes the layout occupies.
func (l Layout) Nodes() int { return cluster.NodesFor(l.Procs, l.PPN) }

// usedPPN returns the ranks actually resident per node (the last node may
// be partially filled; contention is modeled on the dominant full nodes).
func (l Layout) usedPPN() int {
	if l.Procs < l.PPN {
		return l.Procs
	}
	return l.PPN
}

// Component is a fully configured component application instance, ready to
// be run by the workflow simulator, solo or coupled.
type Component struct {
	Name   string
	Layout Layout
	// Steps is the number of coupling steps the component participates in.
	// All components of one workflow must agree on it.
	Steps int
	// StepTime returns the computation time of coupling step (0-based),
	// including the app's internal communication and imbalance.
	StepTime func(step int) float64
	// OutBytes is the payload streamed per step on each outgoing edge
	// (0 for sinks).
	OutBytes float64
	// ChunkBytes is the staging granularity for outgoing data; <= 0 means
	// the whole step payload moves as one chunk.
	ChunkBytes float64
	// EmitPerChunk is the sender-side CPU cost (pack + staging metadata)
	// per outgoing chunk.
	EmitPerChunk func(chunkBytes float64) float64
	// IngestPerChunk is the receiver-side CPU cost (unpack) per incoming
	// chunk; used when this component consumes an upstream stream.
	IngestPerChunk func(chunkBytes float64) float64
	// PFSWriteBytes is data this component writes to the parallel file
	// system every step as part of its function (e.g. Stage Write).
	PFSWriteBytes float64
}

// Nodes returns the component's node count.
func (c *Component) Nodes() int { return c.Layout.Nodes() }

// ChunksPerStep returns how many staging chunks one step's payload spans.
func (c *Component) ChunksPerStep() int {
	if c.OutBytes <= 0 {
		return 0
	}
	if c.ChunkBytes <= 0 || c.ChunkBytes >= c.OutBytes {
		return 1
	}
	return int(math.Ceil(c.OutBytes / c.ChunkBytes))
}

// scaling is the shared analytic model of one application's per-step time.
type scaling struct {
	workCoreSec float64 // parallel work per step, core-seconds
	serialSec   float64 // unparallelizable work per step, seconds
	threadFrac  float64 // Amdahl parallel fraction across threads (0 = unthreaded)
	memPerCore  float64 // per-core memory-bandwidth demand, bytes/s
	commAlpha   float64 // latency-bound communication: alpha * log2(procs)
	commBeta    float64 // sync/collective growth: beta * sqrt(procs)
	imbAmp      float64 // load-imbalance amplitude at full machine scale
	imbExp      float64 // growth exponent of imbalance with procs
}

// stepTime evaluates the model for a layout on machine m.
func (s scaling) stepTime(m cluster.Machine, l Layout) float64 {
	procs := float64(l.Procs)
	threads := float64(l.Threads)
	if threads < 1 {
		threads = 1
	}

	// Thread-level speedup is Amdahl-limited and collapses under core
	// oversubscription (ppn*threads beyond the physical cores).
	amdahl := 1.0
	if threads > 1 && s.threadFrac > 0 {
		amdahl = 1 / ((1 - s.threadFrac) + s.threadFrac/threads)
	}
	over := float64(l.usedPPN()) * threads / float64(m.CoresPerNode)
	if over < 1 {
		over = 1
	}
	parallelism := procs * amdahl / over

	// Memory-bandwidth contention: cores on a node share MemBWPerNode.
	demand := float64(l.usedPPN()) * threads * s.memPerCore
	memFactor := 1.0
	if demand > m.MemBWPerNode {
		memFactor = demand / m.MemBWPerNode
	}

	t := s.serialSec + s.workCoreSec/parallelism*memFactor

	if l.Procs > 1 {
		t += s.commAlpha*math.Log2(procs) + s.commBeta*math.Sqrt(procs)
	}

	imb := 1 + s.imbAmp*math.Pow(procs/1085.0, s.imbExp)
	// Platform load (degraded nodes, thermal throttling) scales compute
	// uniformly; Slowdown() is exactly 1 on a nominal machine, so the
	// static-cluster path keeps its bit patterns.
	return t * imb * m.Slowdown()
}

// packCost returns the CPU time to stage chunkBytes through memory plus
// fixed per-chunk staging metadata overhead.
func packCost(m cluster.Machine, chunkBytes, fixed float64) float64 {
	return fixed + chunkBytes/(m.MemBWPerNode/4)
}

// ProcsLayout is the layout of a cfg = [procs, ppn] or [procs, ppn, threads]
// application: every configurable component but Heat Transfer.
func ProcsLayout(cfg cfgspace.Config) Layout {
	l := Layout{Procs: cfg[0], PPN: cfg[1], Threads: 1}
	if len(cfg) > 2 {
		l.Threads = cfg[2]
	}
	return l
}

// SerialLayout is the layout of the unconfigurable serial plotters: one
// rank on its own node.
func SerialLayout(cfgspace.Config) Layout { return Layout{Procs: 1, PPN: 1, Threads: 1} }

// layoutSpace returns the common {procs, ppn, threads} space of Table 1
// with the per-component feasibility constraint nodes <= maxNodes.
func layoutSpace(maxProcs, maxThreads, maxNodes int) *cfgspace.Space {
	params := []cfgspace.Param{
		cfgspace.NewParam("procs", 2, maxProcs),
		cfgspace.NewParam("ppn", 1, 35),
	}
	if maxThreads > 1 {
		params = append(params, cfgspace.NewParam("threads", 1, maxThreads))
	}
	return &cfgspace.Space{
		Params: params,
		Valid:  func(c cfgspace.Config) bool { return ProcsLayout(c).Nodes() <= maxNodes },
	}
}
