// Heat pipeline: the HS workflow (Heat Transfer streaming state to Stage
// Write) is the paper's model of numerical PDE output forwarding (§7.1).
// This example explores the in-situ coupling behaviour the auto-tuner must
// navigate:
//
//  1. staging-buffer size — small buffers pay per-chunk rendezvous costs;
//
//  2. consumer sizing — an undersized Stage Write backpressures the
//     simulation.
//
//     go run ./examples/heatpipeline
package main

import (
	"fmt"
	"log"

	"ceal"
)

func main() {
	machine := ceal.DefaultMachine()
	bench := ceal.BenchmarkHS(machine)

	// HS configuration: [procsX, procsY, ppn, outputs, bufferMB, swProcs, swPPN].
	base := ceal.Config{16, 16, 16, 16, 20, 32, 8}

	fmt.Println("1) staging buffer size vs execution time (16x16 heat, 16 outputs)")
	for _, bufMB := range []int{1, 2, 5, 10, 20, 40} {
		cfg := base.Clone()
		cfg[4] = bufMB
		meas := measure(bench, cfg)
		fmt.Printf("   buffer %2d MB: exec %7.3f s, computer %6.4f core-h\n",
			bufMB, meas.ExecTime, meas.CompTime)
	}

	fmt.Println("\n2) Stage Write sizing: an undersized consumer stalls the simulation")
	for _, swProcs := range []int{2, 8, 32, 128} {
		cfg := base.Clone()
		cfg[5] = swProcs
		meas := measure(bench, cfg)
		fmt.Printf("   stage write %3d procs: heat wall %7.3f s, workflow exec %7.3f s\n",
			swProcs, meas.PerComponent[0], meas.ExecTime)
	}

	fmt.Println("\n3) auto-tune the whole space with CEAL (execution time, 50 runs)")
	problem := ceal.NewProblem(bench, ceal.ExecTime, 1000, 7)
	res, err := ceal.NewCEAL().Tune(problem, 50)
	if err != nil {
		log.Fatal(err)
	}
	meas := measure(bench, res.Best)
	fmt.Printf("   tuned %v -> exec %.3f s (expert: %.3f s)\n",
		res.Best, meas.ExecTime, measure(bench, bench.ExpertExec).ExecTime)
}

func measure(bench *ceal.Benchmark, cfg ceal.Config) ceal.Measurement {
	w, err := bench.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	meas, err := w.RunInSitu()
	if err != nil {
		log.Fatal(err)
	}
	return meas
}
