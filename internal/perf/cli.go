package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
)

// Main is cmd/ceal-bench: it parses args and returns the exit code.
//
//	ceal-bench                       run the four workloads, print the ledger
//	ceal-bench -workload paper ...   run one workload (the driver's form)
//	ceal-bench compare A.json B.json compare two ledgers
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("ceal-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload: paper, bigpool, serve or store (default: all four, each in a fresh child process)")
		seed     = fs.Uint64("seed", 1, "offsets every job seed")
		seconds  = fs.Float64("seconds", 27, "measuring time per run")
		trace    = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		tiny     = fs.Bool("tiny", false, "smoke-test scale")
		spans    = fs.String("spans", "", "with -trace 1: write the spans as JSON lines to this file")
		out      = fs.String("out", "", "all-workloads mode: write the ledger JSON to this file")
		reps     = fs.Int("reps", 1, "all-workloads mode: runs per workload, on consecutive seeds")
		report   = fs.Bool("report", false, "end with the full report as JSON instead of the driver's result line (what all-workloads mode reads from its children)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ceal-bench: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *workload == "" {
		return ledgerMain(LedgerOptions{Seed: *seed, Seconds: *seconds, Tiny: *tiny, Reps: *reps, Out: *out}, stdout, stderr)
	}
	return execute(Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds,
		Trace: *trace != 0, Tiny: *tiny, Spans: *spans,
	}, *report, stdout, stderr)
}

// execute runs one workload, prints its metrics by name and ends with the
// one-line JSON result the benchmark driver reads. A failed check is a
// non-zero exit.
func execute(o Options, full bool, stdout, stderr io.Writer) int {
	rep, err := Run(o)
	if err != nil {
		fmt.Fprintln(stderr, "ceal-bench:", err)
		return 1
	}
	printReport(stdout, rep)
	var last any = driverResult(rep)
	if full {
		last = rep
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "ceal-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct() {
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, "ceal-bench: FAILED:", f)
		}
		return 1
	}
	return 0
}

// result is the driver's result line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// driverResult shapes a report for the driver: every end-to-end metric of
// an untraced run, every per-layer metric of a traced one — a layer that
// takes no part in the workload reads 0.
func driverResult(rep *Report) result {
	r := result{Correct: rep.Correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]Value{}}
	for _, m := range Catalog {
		if m.E2E == rep.Traced {
			continue
		}
		v, ok := rep.Metrics[m.Name]
		if !ok {
			v = Value{0, m.Unit}
		}
		r.Metrics[m.Name] = v
	}
	return r
}

func printReport(w io.Writer, rep *Report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s: %s, seed %d, %d jobs x %d rounds, %d attempted, %d failed\n",
		rep.Workload, mode, rep.Seed, rep.Jobs, rep.Rounds, rep.Attempted, rep.Failed)
	fmt.Fprintf(w, "  untraced rounds (s, as measured): %.3f\n", rep.RoundS)
	fmt.Fprintf(w, "  host speed %.3f of reference (kernel %.3f ms); times and rates below are at reference speed\n",
		rep.Metrics["ref.speed"].Value, rep.Metrics["ref.kernel_ms"].Value)
	for _, m := range Catalog {
		if v, ok := rep.Metrics[m.Name]; ok && m.E2E != rep.Traced {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	ratio := 0.0
	if rep.Attempted > 0 {
		ratio = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  %-30s %14.4f ratio\n", FailRatio, ratio)
}
