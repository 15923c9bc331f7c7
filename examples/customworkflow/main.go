// Custom workflow: build a brand-new two-component in-situ workflow — a
// spectral "turbulence" solver streaming snapshots to an "eddy census"
// analyzer — on top of the public API, then auto-tune it with CEAL. This
// is the downstream-adoption path: everything here uses only the ceal
// package.
//
//	go run ./examples/customworkflow
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"ceal"
)

const (
	steps         = 40
	snapshotBytes = 64e6 // one spectral snapshot per coupling step
)

var machine = ceal.DefaultMachine()

// layout is both components' process layout: cfg = [procs, ppn], unthreaded.
func layout(cfg ceal.Config) ceal.Layout {
	return ceal.Layout{Procs: cfg[0], PPN: cfg[1], Threads: 1}
}

// space is each component's own space: procs and ppn, capped at 24 nodes.
var space = &ceal.Space{
	Params: []ceal.Param{ceal.NewParam("procs", 2, 840), ceal.NewParam("ppn", 1, 35)},
	Valid:  func(c ceal.Config) bool { return layout(c).Nodes() <= 24 },
}

// solver models a pseudo-spectral solver: heavy compute, log-p transpose
// communication, memory-bandwidth hungry.
func solver(cfg ceal.Config) *ceal.Component {
	l := layout(cfg)
	procs := float64(l.Procs)
	work := 160.0 // core-seconds per step
	comm := 0.02*math.Log2(procs) + 0.001*math.Sqrt(procs)
	demand := float64(min(l.PPN, l.Procs)) * 5e9
	memFactor := math.Max(1, demand/machine.MemBWPerNode)
	t := work/procs*memFactor + comm
	return &ceal.Component{
		Name:     "turbsolver",
		Layout:   l,
		Steps:    steps,
		StepTime: func(int) float64 { return t },
		OutBytes: snapshotBytes,
		EmitPerChunk: func(b float64) float64 {
			return 1e-3 + b/(machine.MemBWPerNode/4)
		},
	}
}

// census models the analyzer: lighter, latency-bound at scale.
func census(cfg ceal.Config) *ceal.Component {
	l := layout(cfg)
	procs := float64(l.Procs)
	work := 45.0
	comm := 0.01 * math.Log2(procs)
	t := work/procs + comm
	return &ceal.Component{
		Name:     "eddycensus",
		Layout:   l,
		Steps:    steps,
		StepTime: func(int) float64 { return t },
		IngestPerChunk: func(b float64) float64 {
			return 0.5e-3 + b/(machine.MemBWPerNode/4)
		},
	}
}

func main() {
	// The whole workflow, declared once: its configuration space, the
	// allocation cap, Build and the ML features are derived from it.
	bench := ceal.NewBenchmark(ceal.Benchmark{
		Name:    "TURB",
		Machine: machine,
		Components: []ceal.ComponentSpec{
			{Name: "turbsolver", Space: space, Layout: layout, BuildSolo: solver},
			{Name: "eddycensus", Space: space, Layout: layout, BuildSolo: census, InBytesPerStep: snapshotBytes},
		},
		Edges: []ceal.Edge{{From: 0, To: 1}},
		// No expert exists for a new workflow; use a plausible hand guess.
		ExpertExec: ceal.Config{420, 35, 210, 35},
		ExpertComp: ceal.Config{70, 35, 35, 35},
	})

	// Sanity: run the hand guess in-situ and solo.
	w, err := bench.Build(bench.ExpertComp)
	if err != nil {
		log.Fatal(err)
	}
	meas, err := w.RunInSitu()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hand guess %v: exec %.2f s, computer %.3f core-h\n",
		bench.ExpertComp, meas.ExecTime, meas.CompTime)
	solo, err := ceal.RunSolo(machine, solver(ceal.Config{70, 35}), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solver solo at (70,35): exec %.2f s (vs %.2f s coupled — the gap is what CEAL's\n",
		solo.ExecTime, meas.PerComponent[0])
	fmt.Println("  low-fidelity model tolerates and its high-fidelity model learns)")

	// Auto-tune computer time with CEAL.
	problem := ceal.NewProblem(bench, ceal.CompTime, 800, 3)
	res, err := ceal.NewCEAL().Tune(problem, 40)
	if err != nil {
		log.Fatal(err)
	}
	verify, err := problem.Collector().MeasureWorkflows(context.Background(),
		[]ceal.Config{res.Best, bench.ExpertComp})
	if err != nil {
		log.Fatal(err)
	}
	tuned, guess := verify[0].Value, verify[1].Value
	fmt.Printf("\nCEAL (40-run budget) recommends %v -> %.3f core-h\n", res.Best, tuned)
	fmt.Printf("hand guess: %.3f core-h; improvement %.1f%%\n", guess, (1-tuned/guess)*100)
}
