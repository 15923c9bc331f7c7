package workflow

import (
	"fmt"
)

// RunTightlyCoupled executes the workflow in the tightly-coupled in-situ
// style the paper contrasts with loosely-coupled staging (§4): all
// components are linked into the same job and time-share one allocation.
// Within every coupling step the components run in dependency order on the
// shared nodes, handing data over in memory (a copy through the node's
// memory system) instead of across the fabric. There is no pipelining —
// the simulation waits while the analysis uses the cores — but also no
// network transfer and no idle partner allocation.
//
// The allocation is sized by the widest component; each component runs in
// its own configured layout on those nodes.
func (w *Workflow) RunTightlyCoupled() (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	order, err := w.topoOrder()
	if err != nil {
		return Measurement{}, err
	}
	nodes := 0
	for _, c := range w.Components {
		if n := c.Nodes(); n > nodes {
			nodes = n
		}
	}
	if nodes > w.Machine.MaxAllocNodes {
		return Measurement{}, fmt.Errorf("workflow %s: tightly-coupled needs %d nodes, cap is %d", w.Name, nodes, w.Machine.MaxAllocNodes)
	}

	inBytes := make([]float64, len(w.Components))
	for _, e := range w.Edges {
		inBytes[e.To] += w.Components[e.From].OutBytes
	}

	steps := w.Components[0].Steps
	// Per-step time: each component's compute plus in-memory handover of
	// its streams (copy at a fraction of node memory bandwidth, aggregated
	// over the allocation).
	copyBW := w.Machine.MemBWPerNode / 4 * float64(nodes)
	perStep := 0.0
	busyPerStep := make([]float64, len(w.Components))
	for _, ci := range order {
		c := w.Components[ci]
		t := c.StepTime(0) + (c.OutBytes+inBytes[ci])/copyBW
		perStep += t
		busyPerStep[ci] = t
	}
	makespan := perStep * float64(steps)
	// PFS writes still go to storage.
	for _, c := range w.Components {
		if c.PFSWriteBytes > 0 {
			rate := w.Machine.PFSRate(nodes)
			makespan += (c.PFSWriteBytes/rate + w.Machine.PFSOpenLatency) * float64(steps)
		}
	}

	perComponent := make([]float64, len(w.Components))
	busy := make([]float64, len(w.Components))
	var energy float64
	cores := float64(nodes * w.Machine.CoresPerNode)
	for ci, c := range w.Components {
		perComponent[ci] = makespan // all components share the job lifetime
		busy[ci] = busyPerStep[ci] * float64(steps)
		energy += w.Machine.EnergyKJ(0, busy[ci]*activeCores(c, w.Machine))
	}
	// Idle draw for the single shared allocation.
	energy += w.Machine.EnergyKJ(float64(nodes)*makespan, 0)

	return Measurement{
		ExecTime:     makespan,
		CompTime:     makespan * cores / 3600,
		EnergyKJ:     energy,
		PerComponent: perComponent,
	}, nil
}
