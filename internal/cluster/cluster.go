// Package cluster describes the simulated HPC machine and assembles the
// per-run simulation runtime (engine plus shared links).
//
// The defaults mirror the paper's testbed: a 600-node cluster of two-socket
// 18-core Intel Broadwell nodes (36 cores/node, hyperthreading off) with an
// Omni-Path-class fabric, on which each workflow runs with exclusive access
// to an allocation of at most 32 nodes (§7.1).
package cluster

import (
	"fmt"

	"ceal/internal/fabric"
	"ceal/internal/sim"
)

// Machine describes the hardware a workflow runs on.
type Machine struct {
	Nodes          int     // total nodes in the cluster
	CoresPerNode   int     // physical cores per node (hyperthreading off)
	MaxAllocNodes  int     // allocation cap per workflow run
	MemBWPerNode   float64 // per-node memory bandwidth, bytes/s
	NICBandwidth   float64 // per-node network injection bandwidth, bytes/s
	NetLatency     float64 // one-way message latency, seconds
	FabricShare    float64 // fraction of aggregate NIC bandwidth usable as bisection
	PFSBandwidth   float64 // aggregate parallel-file-system bandwidth, bytes/s
	PFSNodeLimit   float64 // per-node PFS client bandwidth limit, bytes/s
	PFSOpenLatency float64 // per-file-operation latency, seconds
	IdleWatts      float64 // per-node power when allocated but idle
	ActiveWatts    float64 // per-node power at full-core utilization
	// ComputeSlowdown is the per-step compute multiplier imposed by the
	// current platform load (see Load.UnderLoad); 0 means nominal speed.
	// Read through Slowdown so the zero value stays cost-free.
	ComputeSlowdown float64
}

// Slowdown returns the compute-time multiplier the machine currently
// imposes: 1 on a nominal machine, >1 under degraded-node load.
func (m Machine) Slowdown() float64 {
	if m.ComputeSlowdown > 0 {
		return m.ComputeSlowdown
	}
	return 1
}

// Default returns the paper-testbed machine model.
func Default() Machine {
	return Machine{
		Nodes:          600,
		CoresPerNode:   36,
		MaxAllocNodes:  32,
		MemBWPerNode:   120e9,  // dual-socket DDR4-2400
		NICBandwidth:   12.5e9, // 100 Gb/s Omni-Path
		NetLatency:     2e-6,
		FabricShare:    0.5,
		PFSBandwidth:   20e9,
		PFSNodeLimit:   1.5e9,
		PFSOpenLatency: 2e-3,
		IdleWatts:      110, // dual-socket Broadwell node, allocated idle
		ActiveWatts:    350, // all 36 cores busy
	}
}

// EnergyKJ returns the energy, in kilojoules, of an allocation that holds
// nodeSeconds node-seconds while performing activeCoreSeconds core-seconds
// of compute. Allocated nodes draw IdleWatts throughout; each busy core
// adds its share of the idle-to-active gap.
func (m Machine) EnergyKJ(nodeSeconds, activeCoreSeconds float64) float64 {
	perCore := (m.ActiveWatts - m.IdleWatts) / float64(m.CoresPerNode)
	return (m.IdleWatts*nodeSeconds + perCore*activeCoreSeconds) / 1000
}

// NodesFor returns the node count for a procs/ppn layout: ceil(procs/ppn).
func NodesFor(procs, ppn int) int {
	if procs <= 0 || ppn <= 0 {
		return 0
	}
	return (procs + ppn - 1) / ppn
}

// Runtime is one simulated workflow run: an engine plus the machine's shared
// communication substrates. Create one per measurement.
type Runtime struct {
	Machine Machine
	Eng     *sim.Engine
	// Core is the job's interconnect: all inter-component staging traffic
	// contends here. Its capacity scales with the job's allocation size.
	Core *fabric.Link
	// PFS is the parallel file system used by solo runs and I/O-forwarding
	// components.
	PFS *fabric.Link
}

// NewRuntime builds a runtime for a job spanning jobNodes nodes. It returns
// an error if the allocation exceeds the machine's cap.
func (m Machine) NewRuntime(jobNodes int) (*Runtime, error) {
	if jobNodes < 1 {
		return nil, fmt.Errorf("cluster: job needs at least one node, got %d", jobNodes)
	}
	if jobNodes > m.MaxAllocNodes {
		return nil, fmt.Errorf("cluster: job of %d nodes exceeds allocation cap %d", jobNodes, m.MaxAllocNodes)
	}
	e := sim.NewEngine()
	coreCap := float64(jobNodes) * m.NICBandwidth * m.FabricShare
	return &Runtime{
		Machine: m,
		Eng:     e,
		Core:    fabric.NewLink(e, coreCap),
		PFS:     fabric.NewLink(e, m.PFSBandwidth),
	}, nil
}

// PFSRate returns the peak PFS bandwidth reachable by an allocation of the
// given node count (client-side per-node limit times nodes, before sharing
// on the PFS link itself).
func (m Machine) PFSRate(nodes int) float64 {
	return float64(nodes) * m.PFSNodeLimit
}

// InjectionRate returns the peak fabric bandwidth reachable by an endpoint
// spanning the given node count.
func (m Machine) InjectionRate(nodes int) float64 {
	return float64(nodes) * m.NICBandwidth
}
