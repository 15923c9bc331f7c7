// Package ceal is an auto-tuner for in-situ scientific workflows,
// reproducing "Bootstrapping In-situ Workflow Auto-Tuning via Combining
// Performance Models of Component Applications" (Shu et al., SC '21).
//
// The package couples three layers:
//
//   - a deterministic cluster and in-situ workflow simulator (the
//     measurement substrate, substituting for the paper's 600-node
//     testbed) with the paper's three benchmark workflows — LV (LAMMPS +
//     Voro++), HS (Heat Transfer + Stage Write) and GP (Gray-Scott + PDF
//     calculator + two serial plotters);
//   - a from-scratch ML stack (gradient-boosted regression trees)
//     standing in for xgboost;
//   - the auto-tuning algorithms: CEAL (the paper's contribution) plus the
//     RS, AL, GEIST and ALpH baselines.
//
// Quickstart:
//
//	machine := ceal.DefaultMachine()
//	bench := ceal.BenchmarkLV(machine)
//	problem := ceal.NewProblem(bench, ceal.CompTime, 2000, 1)
//	result, err := ceal.NewCEAL().Tune(problem, 50)
//
// A workflow of your own is declared once — components and the streams
// between them — and NewBenchmark derives its joint space, allocation
// constraint, builder and ML features (see examples/customworkflow).
//
// The experiment harness that regenerates the paper's tables and figures
// lives behind ceal.Experiments / cmd/paperexp.
package ceal

import (
	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/live"
	"ceal/internal/paperexp"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
	"ceal/internal/workflow"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Machine describes the simulated HPC system.
	Machine = cluster.Machine
	// Config is a concrete configuration (one value per parameter).
	Config = cfgspace.Config
	// Space is a configuration parameter space.
	Space = cfgspace.Space
	// Param is one integer configuration parameter.
	Param = cfgspace.Param
	// Benchmark is a target workflow, declared once (see NewBenchmark).
	Benchmark = workflow.Benchmark
	// Workflow is a configured in-situ workflow instance.
	Workflow = workflow.Workflow
	// Measurement is the outcome of one simulated run.
	Measurement = workflow.Measurement
	// Problem is a fully specified auto-tuning task.
	Problem = tuner.Problem
	// Algorithm is an auto-tuning algorithm under a measurement budget.
	Algorithm = tuner.Algorithm
	// Objective selects the optimization metric.
	Objective = workflow.Objective
	// Component is one configured component application instance.
	Component = apps.Component
	// Layout is a component's process layout (procs, ppn, threads).
	Layout = apps.Layout
	// Edge is a streaming data dependency between workflow components.
	Edge = workflow.Edge
	// ComponentSpec declares a component: space, layout function, constructor.
	ComponentSpec = workflow.ComponentSpec
	// Observer receives a tuning run's event stream. Attach one via
	// Problem.Observer; nil (the default) is a zero-cost no-op and never
	// changes results.
	Observer = events.Observer
)

// Helpers for declaring custom workflows, and event observers.
var (
	// NewParam returns an integer parameter with stride 1.
	NewParam = cfgspace.NewParam
	// NewBenchmark completes a declared workflow — components, edges,
	// expert configurations — by deriving its joint configuration space.
	NewBenchmark = workflow.NewBenchmark
	// RunSolo executes a single component alone against the file system.
	RunSolo = workflow.RunSolo
	// NewRecorder returns an empty event Recorder.
	NewRecorder = events.NewRecorder
	// NewJSONLWriter returns an event observer that writes one JSON object
	// per event to w.
	NewJSONLWriter = events.NewJSONLWriter
	// MultiObserver fans one event stream out to several observers.
	MultiObserver = events.Multi
)

// Optimization objectives.
const (
	// ExecTime minimizes wall-clock execution time.
	ExecTime = workflow.ExecTime
	// CompTime minimizes consumed core-hours.
	CompTime = workflow.CompTime
	// Energy minimizes consumed kilojoules (extension, §4).
	Energy = workflow.Energy
)

// DefaultMachine returns the paper-testbed machine model: 600 Broadwell
// nodes, 36 cores each, 32-node allocation cap.
func DefaultMachine() Machine { return cluster.Default() }

// BenchmarkLV returns the LAMMPS + Voro++ workflow (§7.1).
func BenchmarkLV(m Machine) *Benchmark { return workflow.LV(m) }

// BenchmarkHS returns the Heat Transfer + Stage Write workflow (§7.1).
func BenchmarkHS(m Machine) *Benchmark { return workflow.HS(m) }

// BenchmarkGP returns the Gray-Scott + PDF + plotters workflow (§7.1).
func BenchmarkGP(m Machine) *Benchmark { return workflow.GP(m) }

// BenchmarkByName returns "LV", "HS" or "GP".
func BenchmarkByName(m Machine, name string) (*Benchmark, error) {
	return workflow.ByName(m, name)
}

// NewCEAL returns the paper's Component-based Ensemble Active Learning
// (defaults tuned per DESIGN.md); the baselines and extensions come from
// AlgorithmByName.
var NewCEAL = tuner.NewCEAL

// AlgorithmByName maps a name (rs, al, geist, alph, ceal) to a fresh
// algorithm instance with default options.
func AlgorithmByName(name string) (Algorithm, error) { return live.AlgorithmByName(name) }

// LiveEvaluator measures configurations by actually running the cluster
// simulator (as opposed to the experiment harness's pre-measured pools).
// Noise is keyed to the configuration so repeated measurements of the same
// configuration are reproducible.
type LiveEvaluator = live.Evaluator

// NewProblem assembles a live auto-tuning problem over a benchmark: a
// candidate pool of poolSize random valid configurations, evaluated by
// running the simulator on demand through the problem's caching Collector
// (set Problem.Runner for parallel measurement, Problem.Ctx for
// cancellation). Use Experiments for the paper's pre-measured evaluation
// methodology instead.
func NewProblem(b *Benchmark, obj Objective, poolSize int, seed uint64) *Problem {
	return live.NewProblem(b, obj, poolSize, seed)
}

// Experiments returns the paper's tables/figures as runnable experiments.
var Experiments = paperexp.All
