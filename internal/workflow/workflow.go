// Package workflow assembles component applications into in-situ workflows
// and runs them on the cluster simulator, producing the execution-time and
// computer-time measurements that the auto-tuners consume.
//
// Three run modes mirror the paper's Fig. 2 and §4:
//
//   - In-situ: all components run concurrently; every DAG edge is a staging
//     channel with bounded buffering, per-chunk rendezvous, and transfers
//     contending on the job's shared fabric. This is what the auto-tuner
//     measures.
//   - Solo: one component runs alone, exchanging its streams with the
//     parallel file system instead of a partner. This is how component
//     models' training data are collected (cheap, but blind to coupling).
//   - Post-hoc: the classic file-based pipeline — each component runs to
//     completion, staging everything through the file system, before its
//     successors start.
package workflow

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"ceal/internal/apps"
	"ceal/internal/cluster"
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
	return w.runInSitu(nil)
}

// runInSitu is the one in-situ run; a non-nil trace is filled with every
// component's per-step phase timeline.
func (w *Workflow) runInSitu(trace *Trace) (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	rt, err := w.Machine.NewRuntime(w.TotalNodes())
	if err != nil {
		return Measurement{}, err
	}

	steps := w.Components[0].Steps
	chans := make([]*staging.Channel, len(w.Edges))
	inEdges := make([][]int, len(w.Components))
	outEdges := make([][]int, len(w.Components))
	for i, e := range w.Edges {
		from, to := w.Components[e.From], w.Components[e.To]
		rate := math.Min(
			w.Machine.InjectionRate(from.Nodes()),
			w.Machine.InjectionRate(to.Nodes()),
		)
		chans[i] = staging.NewChannel(rt.Eng, plan(from), rate, 0)
		chans[i].StartDaemon(rt.Eng, "staging-"+strconv.Itoa(i), rt.Core, steps, w.Machine.NetLatency)
		outEdges[e.From] = append(outEdges[e.From], i)
		inEdges[e.To] = append(inEdges[e.To], i)
	}

	if trace != nil {
		trace.Components = make([]ComponentTrace, len(w.Components))
		for ci, c := range w.Components {
			trace.Components[ci] = ComponentTrace{Name: c.Name, Nodes: c.Nodes(), Steps: make([]StepTrace, 0, steps)}
		}
	}
	finish := make([]float64, len(w.Components))
	for ci, c := range w.Components {
		rt.Eng.Spawn(c.Name, func(p *sim.Proc) {
			pfsCap := apps.PFSCap(w.Machine, c.Layout)
			for step := 0; step < steps; step++ {
				start := p.Now()
				for _, ei := range inEdges[ci] {
					chans[ei].RecvStep(p, c.IngestPerChunk)
				}
				received := p.Now()
				p.Sleep(c.StepTime(step))
				computed := p.Now()
				if c.PFSWriteBytes > 0 {
					rt.PFS.Transfer(p, c.PFSWriteBytes, pfsCap, w.Machine.PFSOpenLatency)
				}
				for _, ei := range outEdges[ci] {
					chans[ei].SendStep(p, c.EmitPerChunk)
				}
				if trace != nil {
					ct := &trace.Components[ci]
					ct.Steps = append(ct.Steps, StepTrace{
						Step:    step,
						Wait:    received - start,
						Compute: computed - received,
						Output:  p.Now() - computed,
					})
				}
			}
			finish[ci] = p.Now()
		})
	}

	if err := rt.Eng.Run(); err != nil {
		return Measurement{}, fmt.Errorf("workflow %s: %w", w.Name, err)
	}

	busy := make([]float64, len(w.Components))
	for ci, c := range w.Components {
		var inPlans []staging.Plan
		for _, ei := range inEdges[ci] {
			inPlans = append(inPlans, chans[ei].Plan)
		}
		busy[ci] = activeSeconds(c, inPlans)
	}
	meas := w.measurement(finish, busy)
	if trace != nil {
		trace.Makespan = meas.ExecTime
	}
	return meas, nil
}

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
		PerComponent:       append([]float64(nil), perComponent...),
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
	var finish float64
	cp := plan(c)
	rt.Eng.Spawn(c.Name, func(p *sim.Proc) {
		pfsCap := apps.PFSCap(m, c.Layout)
		for step := 0; step < c.Steps; step++ {
			if inBytesPerStep > 0 {
				rt.PFS.Transfer(p, inBytesPerStep, pfsCap, m.PFSOpenLatency)
				if c.IngestPerChunk != nil {
					p.Sleep(c.IngestPerChunk(inBytesPerStep))
				}
			}
			p.Sleep(c.StepTime(step))
			if c.PFSWriteBytes > 0 {
				rt.PFS.Transfer(p, c.PFSWriteBytes, pfsCap, m.PFSOpenLatency)
			}
			for k := 0; k < cp.PerStep; k++ {
				bytes := cp.Size(k)
				if c.EmitPerChunk != nil {
					p.Sleep(c.EmitPerChunk(bytes))
				}
				rt.PFS.Transfer(p, bytes, pfsCap, 0)
			}
		}
		finish = p.Now()
	})
	if err := rt.Eng.Run(); err != nil {
		return Measurement{}, fmt.Errorf("solo %s: %w", c.Name, err)
	}
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
	}, nil
}

// RunPostHoc executes the workflow file-based (Fig. 2a): components run in
// topological order, each reading its inputs from and writing its outputs
// to the PFS; a component starts only after all its producers finished.
// Computer time charges each component only for its own allocation and
// duration (allocations are sequential, not held concurrently).
func (w *Workflow) RunPostHoc() (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	order, err := w.topoOrder()
	if err != nil {
		return Measurement{}, err
	}
	inBytes := make([]float64, len(w.Components))
	for _, e := range w.Edges {
		inBytes[e.To] += w.Components[e.From].OutBytes
	}
	ready := make([]float64, len(w.Components)) // earliest start time
	finish := make([]float64, len(w.Components))
	perEnergy := make([]float64, len(w.Components))
	var compHours float64
	for _, ci := range order {
		c := w.Components[ci]
		meas, err := RunSolo(w.Machine, c, inBytes[ci])
		if err != nil {
			return Measurement{}, err
		}
		finish[ci] = ready[ci] + meas.ExecTime
		compHours += meas.CompTime
		perEnergy[ci] = meas.EnergyKJ
		for _, e := range w.Edges {
			if e.From == ci && finish[ci] > ready[e.To] {
				ready[e.To] = finish[ci]
			}
		}
	}
	makespan, energy := 0.0, 0.0
	for ci, t := range finish {
		if t > makespan {
			makespan = t
		}
		energy += perEnergy[ci]
	}
	return Measurement{
		ExecTime: makespan, CompTime: compHours, EnergyKJ: energy,
		PerComponent: finish, PerComponentEnergy: perEnergy,
	}, nil
}

func (w *Workflow) topoOrder() ([]int, error) {
	n := len(w.Components)
	indeg := make([]int, n)
	for _, e := range w.Edges {
		indeg[e.To]++
	}
	var order []int
	queue := []int{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		ci := queue[0]
		queue = queue[1:]
		order = append(order, ci)
		for _, e := range w.Edges {
			if e.From == ci {
				indeg[e.To]--
				if indeg[e.To] == 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("workflow %s: dependency cycle", w.Name)
	}
	return order, nil
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
