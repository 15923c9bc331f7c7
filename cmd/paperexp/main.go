// Command paperexp regenerates the paper's tables and figures (§7) on the
// simulated substrate and prints them as text tables.
//
// Usage:
//
//	paperexp -list
//	paperexp -exp fig5 -reps 100
//	paperexp -exp all -reps 25 -pool 1000 -compsamples 300
//
// Paper-scale settings (-reps 100 -pool 2000 -compsamples 500) match §7.1
// and §7.3 but take correspondingly longer; the defaults trade a little
// replication for speed. SIGINT/SIGTERM cancel the run between simulation
// batches.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ceal"
	"ceal/internal/paperexp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment explicit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID   = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = fs.Bool("list", false, "list experiments and exit")
		reps    = fs.Int("reps", 25, "replications per algorithm (paper: 100)")
		pool    = fs.Int("pool", 2000, "workflow pool size (paper: 2000)")
		compN   = fs.Int("compsamples", 500, "solo runs per component (paper: 500)")
		seed    = fs.Uint64("seed", 1, "base random seed")
		workers = fs.Int("workers", 8, "parallel simulation and replication width")
		timeout = fs.Duration("timeout", 0, "abort the run after this long (0: no limit)")
		format  = fs.String("format", "text", "output format: text or csv")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "paperexp: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "paperexp:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, e := range paperexp.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var exps []paperexp.Experiment
	if *expID == "all" {
		exps = paperexp.All()
	} else {
		e, err := paperexp.ByID(*expID)
		if err != nil {
			return fail(err)
		}
		exps = []paperexp.Experiment{e}
	}
	if *format != "text" && *format != "csv" {
		return fail(fmt.Errorf("unknown format %q (want text or csv)", *format))
	}

	opt := paperexp.Options{
		Pool:             *pool,
		ComponentSamples: *compN,
		Reps:             *reps,
		Seed:             *seed,
		Workers:          *workers,
		Ctx:              ctx,
	}

	// Build each needed ground truth once, shared across experiments.
	needed := map[string]bool{}
	for _, e := range exps {
		for _, wf := range e.Workflows {
			needed[wf] = true
		}
	}
	m := ceal.DefaultMachine()
	gts := map[string]*paperexp.GroundTruth{}
	for _, wf := range []string{"LV", "HS", "GP"} {
		if !needed[wf] {
			continue
		}
		b, err := ceal.BenchmarkByName(m, wf)
		if err != nil {
			return fail(err)
		}
		start := time.Now()
		fmt.Fprintf(stderr, "building %s ground truth (%d pool + %d/component solo runs)... ",
			wf, opt.Pool, opt.ComponentSamples)
		gt, err := paperexp.BuildGroundTruth(b, opt)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
		gts[wf] = gt
	}

	for _, e := range exps {
		start := time.Now()
		tables, err := e.Run(gts, opt)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Fprintf(stderr, "%s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(stdout, "\n##### %s\n\n", e.Title)
		for _, t := range tables {
			if *format == "csv" {
				fmt.Fprintf(stdout, "# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.String())
			}
		}
	}
	return 0
}
