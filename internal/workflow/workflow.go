// Package workflow assembles component applications into in-situ workflows
// and runs them on the cluster simulator, producing the execution-time and
// computer-time measurements that the auto-tuners consume.
//
// Two run modes mirror the two kinds of run the paper's evaluation (§7)
// measures:
//
//   - In-situ: all components run concurrently; every DAG edge is a staging
//     channel with bounded buffering, per-chunk rendezvous, and transfers
//     contending on the job's shared fabric. This is what the auto-tuner
//     measures.
//   - Solo: one component runs alone, exchanging its streams with the
//     parallel file system instead of a partner. This is how component
//     models' training data are collected (cheap, but blind to coupling).
package workflow

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"ceal/internal/apps"
	"ceal/internal/cluster"
	"ceal/internal/fabric"
	"ceal/internal/sim"
	"ceal/internal/staging"
)

// Edge is a streaming data dependency between two components.
type Edge struct {
	From, To int // indices into Workflow.Components
}

// Workflow is a configured in-situ workflow instance.
type Workflow struct {
	Name       string
	Machine    cluster.Machine
	Components []*apps.Component
	Edges      []Edge
}

// TotalNodes returns the job allocation size: components occupy disjoint
// node sets (§7.1: components are launched side by side in one allocation).
func (w *Workflow) TotalNodes() int {
	n := 0
	for _, c := range w.Components {
		n += c.Nodes()
	}
	return n
}

// Measurement is the outcome of one workflow or component run.
type Measurement struct {
	ExecTime float64 // wall-clock makespan, seconds
	CompTime float64 // consumed core-hours
	// EnergyKJ is the allocation's energy over the run in kilojoules:
	// allocated nodes draw idle power for the whole makespan, and each
	// component's active compute adds the idle-to-active gap (§4 lists
	// energy as an aggregate metric; it is the plain-Sum combiner's
	// natural target).
	EnergyKJ float64
	// PerComponent holds each component's end-to-end wall-clock time; for
	// solo runs it has one entry.
	PerComponent []float64
	// PerComponentEnergy splits EnergyKJ by component (same indexing as
	// PerComponent): each entry charges the component's own allocation for
	// idle draw over its accounted span plus the active-power gap for its
	// busy core-seconds. The entries sum to EnergyKJ.
	PerComponentEnergy []float64
	// Events is how many simulator events the run popped: its work, not
	// part of what it measures.
	Events int64
}

// Objective selects the optimization metric: which aggregate of a
// Measurement a tuner minimizes.
type Objective int

const (
	// ExecTime minimizes wall-clock execution time (seconds).
	ExecTime Objective = iota
	// CompTime minimizes consumed computer time (core-hours).
	CompTime
	// Energy minimizes consumed energy (kilojoules) — the paper's §4
	// example of an aggregate metric; an extension beyond its evaluation.
	Energy
)

// objectiveLabels holds each objective's figure name, its compact label in
// specs and flags, and the unit Measurement.Value reports it in.
var objectiveLabels = [...]struct{ name, short, unit string }{
	ExecTime: {"execution time", "exec", "s"},
	CompTime: {"computer time", "comp", "core-hours"},
	Energy:   {"energy", "energy", "kJ"},
}

// String returns the metric name as used in the paper's figures.
func (o Objective) String() string { return objectiveLabels[o].name }

// Short returns the compact label specs and flags use (exec, comp, energy).
func (o Objective) Short() string { return objectiveLabels[o].short }

// Unit returns the unit Value reports the objective in.
func (o Objective) Unit() string { return objectiveLabels[o].unit }

// Value returns the measurement's value under obj.
func (m Measurement) Value(obj Objective) float64 {
	switch obj {
	case ExecTime:
		return m.ExecTime
	case CompTime:
		return m.CompTime
	default:
		return m.EnergyKJ
	}
}

// Validate checks structural soundness: steps agreement, edge indices, and
// allocation fit.
func (w *Workflow) Validate() error {
	if len(w.Components) == 0 {
		return fmt.Errorf("workflow %s: no components", w.Name)
	}
	steps := w.Components[0].Steps
	for _, c := range w.Components {
		if c.Steps != steps {
			return fmt.Errorf("workflow %s: component %s has %d steps, want %d", w.Name, c.Name, c.Steps, steps)
		}
		if c.Nodes() < 1 {
			return fmt.Errorf("workflow %s: component %s occupies no nodes", w.Name, c.Name)
		}
	}
	for _, e := range w.Edges {
		if e.From < 0 || e.From >= len(w.Components) || e.To < 0 || e.To >= len(w.Components) || e.From == e.To {
			return fmt.Errorf("workflow %s: bad edge %+v", w.Name, e)
		}
		if w.Components[e.From].OutBytes <= 0 {
			return fmt.Errorf("workflow %s: edge from %s but it produces no output", w.Name, w.Components[e.From].Name)
		}
	}
	if w.TotalNodes() > w.Machine.MaxAllocNodes {
		return fmt.Errorf("workflow %s: needs %d nodes, allocation cap is %d", w.Name, w.TotalNodes(), w.Machine.MaxAllocNodes)
	}
	return nil
}

// plan returns a component's staging chunk plan.
func plan(c *apps.Component) staging.Plan {
	return staging.NewPlan(c.OutBytes, c.ChunkBytes)
}

// activeSeconds returns a component's per-rank active CPU time over a run:
// its compute steps plus the chunk pack/unpack work on its streams.
// Blocking (waiting on partners, transfers in flight) is excluded — that is
// what idle power charges for.
func activeSeconds(c *apps.Component, inPlans []staging.Plan) float64 {
	perStep := c.StepTime(0)
	out := plan(c)
	for k := 0; k < out.PerStep; k++ {
		if c.EmitPerChunk != nil {
			perStep += c.EmitPerChunk(out.Size(k))
		}
	}
	for _, ip := range inPlans {
		for k := 0; k < ip.PerStep; k++ {
			if c.IngestPerChunk != nil {
				perStep += c.IngestPerChunk(ip.Size(k))
			}
		}
	}
	return perStep * float64(c.Steps)
}

// activeCores returns the cores a component actually keeps busy.
func activeCores(c *apps.Component, m cluster.Machine) float64 {
	active := c.Layout.Procs * c.Layout.Threads
	if reserved := c.Nodes() * m.CoresPerNode; active > reserved {
		active = reserved
	}
	return float64(active)
}

// energyKJ splits the run's energy by component: every component's
// allocation idles for the whole makespan and burns active power for its
// busy core-seconds. The total is the sum of the returned entries.
func (w *Workflow) energyKJ(makespan float64, busy []float64) []float64 {
	per := make([]float64, len(w.Components))
	for j, c := range w.Components {
		nodeSeconds := float64(c.Nodes()) * makespan
		per[j] = w.Machine.EnergyKJ(nodeSeconds, busy[j]*activeCores(c, w.Machine))
	}
	return per
}

// RunInSitu executes the workflow with all components coupled through
// staging channels and returns the measurement. The run is fully
// deterministic.
func (w *Workflow) RunInSitu() (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	rt, err := w.Machine.NewRuntime(w.TotalNodes())
	if err != nil {
		return Measurement{}, err
	}

	steps := w.Components[0].Steps
	procs := make([]process, len(w.Components))
	for ci, c := range w.Components {
		procs[ci] = process{c: c, rt: rt, pfsCap: apps.PFSCap(w.Machine, c.Layout)}
	}
	chans := make([]*staging.Channel, len(w.Edges))
	for i, e := range w.Edges {
		from, to := w.Components[e.From], w.Components[e.To]
		rate := math.Min(
			w.Machine.InjectionRate(from.Nodes()),
			w.Machine.InjectionRate(to.Nodes()),
		)
		chans[i] = staging.NewChannel(rt.Eng, plan(from), rate, 0)
		chans[i].StartDaemon(rt.Eng, "staging-"+strconv.Itoa(i), rt.Core, steps, w.Machine.NetLatency)
		procs[e.From].out = append(procs[e.From].out, chans[i])
		procs[e.To].in = append(procs[e.To].in, chans[i])
	}

	for ci, c := range w.Components {
		rt.Eng.Spawn(c.Name, procs[ci].step)
	}

	if err := rt.Eng.Run(); err != nil {
		return Measurement{}, fmt.Errorf("workflow %s: %w", w.Name, err)
	}

	finish := make([]float64, len(w.Components))
	busy := make([]float64, len(w.Components))
	for ci, c := range w.Components {
		var inPlans []staging.Plan
		for i, e := range w.Edges {
			if e.To == ci {
				inPlans = append(inPlans, chans[i].Plan)
			}
		}
		busy[ci] = activeSeconds(c, inPlans)
		finish[ci] = procs[ci].finish
	}
	meas := w.measurement(finish, busy)
	meas.Events = rt.Eng.Popped()
	return meas, nil
}

// stream is one of a component's data partners: a staging channel in an
// in-situ run, the parallel file system in a solo one.
type stream interface {
	RecvStep(p *sim.Proc, ingestCost func(bytes float64) float64) bool
	SendStep(p *sim.Proc, emitCost func(bytes float64) float64) bool
}

// process is a component's simulated process. Each step receives from
// every input stream, computes, writes to the PFS if the component does,
// and sends on every output stream.
type process struct {
	c       *apps.Component
	rt      *cluster.Runtime
	pfsCap  float64
	in, out []stream
	finish  float64

	k, at, edge int // step, resume point within it, stream
}

// A process step's resume points.
const (
	atRecv = iota
	atComputed
	atSend
)

func (s *process) step(p *sim.Proc) bool {
	c := s.c
	for ; s.k < c.Steps; s.k++ {
		switch s.at {
		case atRecv:
			for ; s.edge < len(s.in); s.edge++ {
				if !s.in[s.edge].RecvStep(p, c.IngestPerChunk) {
					return false
				}
			}
			s.edge = 0
			s.at = atComputed
			if !p.Sleep(c.StepTime(s.k)) {
				return false
			}
			fallthrough
		case atComputed:
			s.at = atSend
			if c.PFSWriteBytes > 0 && !s.rt.PFS.Transfer(p, c.PFSWriteBytes, s.pfsCap, s.rt.Machine.PFSOpenLatency) {
				return false
			}
			fallthrough
		case atSend:
			for ; s.edge < len(s.out); s.edge++ {
				if !s.out[s.edge].SendStep(p, c.EmitPerChunk) {
					return false
				}
			}
			s.edge = 0
			s.at = atRecv
		}
	}
	s.finish = p.Now()
	return true
}

// measurement builds a run's Measurement, keeping perComponent as its own.
func (w *Workflow) measurement(perComponent, busy []float64) Measurement {
	makespan := 0.0
	for _, t := range perComponent {
		if t > makespan {
			makespan = t
		}
	}
	cores := float64(w.TotalNodes() * w.Machine.CoresPerNode)
	perEnergy := w.energyKJ(makespan, busy)
	total := 0.0
	for _, e := range perEnergy {
		total += e
	}
	return Measurement{
		ExecTime:           makespan,
		CompTime:           makespan * cores / 3600,
		EnergyKJ:           total,
		PerComponent:       perComponent,
		PerComponentEnergy: perEnergy,
	}
}

// RunSolo executes a single component alone on its own allocation,
// exchanging its streams with the parallel file system: if inBytesPerStep is
// positive the component reads that much input per step from the PFS, and
// any produced output or PFS writes go to the PFS. This is the paper's
// component-measurement mode.
func RunSolo(m cluster.Machine, c *apps.Component, inBytesPerStep float64) (Measurement, error) {
	if c.Nodes() < 1 {
		return Measurement{}, fmt.Errorf("solo %s: no nodes", c.Name)
	}
	if c.Nodes() > m.MaxAllocNodes {
		return Measurement{}, fmt.Errorf("solo %s: %d nodes exceeds cap %d", c.Name, c.Nodes(), m.MaxAllocNodes)
	}
	rt, err := m.NewRuntime(c.Nodes())
	if err != nil {
		return Measurement{}, err
	}
	proc := process{c: c, rt: rt, pfsCap: apps.PFSCap(m, c.Layout)}
	pfs := &pfsStream{pfs: rt.PFS, cap: proc.pfsCap, latency: m.PFSOpenLatency, in: inBytesPerStep, plan: plan(c)}
	proc.out = []stream{pfs}
	if inBytesPerStep > 0 {
		proc.in = proc.out
	}
	rt.Eng.Spawn(c.Name, proc.step)
	if err := rt.Eng.Run(); err != nil {
		return Measurement{}, fmt.Errorf("solo %s: %w", c.Name, err)
	}
	finish := proc.finish
	cores := float64(c.Nodes() * m.CoresPerNode)
	var inPlans []staging.Plan
	if inBytesPerStep > 0 {
		inPlans = append(inPlans, staging.NewPlan(inBytesPerStep, 0))
	}
	busy := activeSeconds(c, inPlans)
	energy := m.EnergyKJ(float64(c.Nodes())*finish, busy*activeCores(c, m))
	return Measurement{
		ExecTime:           finish,
		CompTime:           finish * cores / 3600,
		EnergyKJ:           energy,
		PerComponent:       []float64{finish},
		PerComponentEnergy: []float64{energy},
		Events:             rt.Eng.Popped(),
	}, nil
}

// pfsStream stands in for a solo component's partners: each step it reads
// the input from the PFS, and it writes every output chunk there.
type pfsStream struct {
	pfs          *fabric.Link
	cap, latency float64
	in           float64 // input bytes per step
	plan         staging.Plan

	read     int  // 1 once the input is read, 2 once it is ingested too
	sent     int  // output chunks sent this step
	emitting bool // the next chunk's emit cost is paid
}

func (s *pfsStream) RecvStep(p *sim.Proc, ingestCost func(bytes float64) float64) bool {
	switch s.read {
	case 0:
		s.read = 1
		if !s.pfs.Transfer(p, s.in, s.cap, s.latency) {
			return false
		}
		fallthrough
	case 1:
		s.read = 2
		if ingestCost != nil && !p.Sleep(ingestCost(s.in)) {
			return false
		}
	}
	s.read = 0
	return true
}

func (s *pfsStream) SendStep(p *sim.Proc, emitCost func(bytes float64) float64) bool {
	for s.sent < s.plan.PerStep {
		bytes := s.plan.Size(s.sent)
		if !s.emitting {
			s.emitting = true
			if emitCost != nil && !p.Sleep(emitCost(bytes)) {
				return false
			}
		}
		s.emitting = false
		s.sent++
		if !s.pfs.Transfer(p, bytes, s.cap, 0) {
			return false
		}
	}
	s.sent = 0
	return true
}

// noiseSigma is the lognormal measurement-noise scale applied by Measure.
const noiseSigma = 0.03

// Measure runs the workflow in-situ and applies multiplicative lognormal
// measurement noise drawn from rng (pass nil for a noiseless measurement),
// emulating run-to-run variability on a real machine.
func (w *Workflow) Measure(rng *rand.Rand) (Measurement, error) {
	meas, err := w.RunInSitu()
	if err != nil {
		return Measurement{}, err
	}
	return applyNoise(meas, rng), nil
}

// MeasureSolo is Measure for a standalone component run.
func MeasureSolo(m cluster.Machine, c *apps.Component, inBytesPerStep float64, rng *rand.Rand) (Measurement, error) {
	meas, err := RunSolo(m, c, inBytesPerStep)
	if err != nil {
		return Measurement{}, err
	}
	return applyNoise(meas, rng), nil
}

func applyNoise(meas Measurement, rng *rand.Rand) Measurement {
	if rng == nil {
		return meas
	}
	f := math.Exp(rng.NormFloat64() * noiseSigma)
	meas.ExecTime *= f
	meas.CompTime *= f
	meas.EnergyKJ *= f
	for i := range meas.PerComponent {
		meas.PerComponent[i] *= f
	}
	for i := range meas.PerComponentEnergy {
		meas.PerComponentEnergy[i] *= f
	}
	return meas
}
