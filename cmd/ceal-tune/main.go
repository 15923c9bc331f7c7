// Command ceal-tune auto-tunes a benchmark workflow on the cluster
// simulator with a chosen algorithm and measurement budget, then reports
// the recommended configuration against the expert recommendation.
//
// Usage:
//
//	ceal-tune -workflow LV -objective comp -budget 50
//	ceal-tune -workflow HS -objective exec -algorithm al -budget 100
//	ceal-tune -workflow GP -budget 50 -workers 8 -timeout 2m
//	ceal-tune -workflow LV -continuous -drift step -probes 60
//	ceal-tune explain run.jsonl
//
// The flags become a run spec and the spec is driven through the same run
// engine ceal-serve exposes over HTTP (internal/service): admission checks
// the spec's names and ranges, the run's events feed -trace (with the
// loop's phase spans, which the service's own stream does not carry), and
// the report is printed from the finished run record. Out-of-range flags
// are therefore rejected with the service's messages.
//
// ceal-tune explain <trace.jsonl> (or -history <dir> <run-id>) reads a
// run's trace back: time and work by phase, measurements by kind, each
// batch's model quality and CEAL's switch decisions.
//
// With -continuous, the run stays alive after convergence: the incumbent is
// probed along a virtual clock while the platform follows the -drift load
// profile, and confirmed drift triggers bounded, warm-started re-exploration
// (online retuning). The summary reports retunes, reconvergence times, and
// time-weighted cumulative regret against the pool oracle.
//
// With -history <dir>, the run is recorded in a tuning-history database (a
// directory of append-only segment files, shareable with ceal-serve) exactly
// as the daemon records it — spec, measurements, event trace, collector
// statistics, and a resume checkpoint after every measured batch and model
// fit. A cold spec the database already holds a completed run of is answered
// from the store instead of re-measured (results are deterministic, so this
// is the same answer); -warm seeds the run from prior runs in the database
// (same-family workflow samples, shared-component samples), and -resume
// <run-id> replays an interrupted run — a tune run or a continuous session
// alike — from its measurement checkpoint, to the uninterrupted run's report.
//
// SIGINT/SIGTERM cancel the run; tuning aborts within one measurement
// batch (and stays resumable when -history is set).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"ceal/internal/histdb"
	"ceal/internal/live"
	"ceal/internal/profiling"
	"ceal/internal/service"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment explicit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "explain" {
		return explain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("ceal-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wfName     = fs.String("workflow", "LV", "benchmark workflow: LV, HS, or GP")
		objName    = fs.String("objective", "comp", "optimization objective: exec, comp, or energy")
		algName    = fs.String("algorithm", "ceal", "rs, al, geist, alph, or ceal")
		budget     = fs.Int("budget", 50, "measurement budget in workflow-run equivalents")
		pool       = fs.Int("pool", 2000, "candidate pool size")
		seed       = fs.Uint64("seed", 1, "random seed (0 selects 1)")
		workers    = fs.Int("workers", 1, "parallel measurement and pool-scoring width")
		timeout    = fs.Duration("timeout", 0, "abort tuning after this long (0: no limit)")
		trace      = fs.String("trace", "", "write the run's events and phase spans as JSONL to this file (\"-\" for stdout)")
		history    = fs.String("history", "", "tuning-history DB (segment directory, created if missing): record this run; enables -warm and -resume")
		warm       = fs.Bool("warm", false, "warm-start from prior runs in the -history DB")
		resume     = fs.String("resume", "", "resume an interrupted run from the -history DB by run ID")
		continuous = fs.Bool("continuous", false, "keep the run alive after convergence: monitor the incumbent under -drift and retune online on confirmed drift")
		driftName  = fs.String("drift", "none", "platform drift profile for -continuous: none, step, ramp, periodic, neighbor, or nodeslow")
		probes     = fs.Int("probes", histdb.DefaultProbes, "monitoring probes after convergence (with -continuous)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocs/heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ceal-tune: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "ceal-tune:", err)
		return 1
	}

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		return fail(err)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(stderr, "ceal-tune:", err)
		}
	}()

	switch {
	case *warm && *history == "":
		return fail(fmt.Errorf("-warm requires -history <path>"))
	case *resume != "" && *history == "":
		return fail(fmt.Errorf("-resume requires -history <path>"))
	case *resume == "" && (*budget == 0 || *pool == 0):
		// A spec's zero means "the default"; the flags already spell their
		// defaults, so an explicit 0 here is a mistake, not a request for
		// 50 runs over 2000 configurations.
		return fail(fmt.Errorf("-budget and -pool must be at least 1"))
	}
	spec := histdb.Spec{
		Benchmark: *wfName, Algorithm: *algName, Objective: *objName,
		Budget: *budget, Pool: *pool, Seed: *seed, Workers: *workers, WarmStart: *warm,
	}
	if *continuous {
		spec.Mode, spec.Drift, spec.Probes = histdb.ModeContinuous, *driftName, *probes
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	emit, closeTrace, err := openTrace(*trace, stdout)
	if err != nil {
		return fail(err)
	}
	// One manager worker over the history DB (or a throwaway in-memory
	// store) is the whole run engine: the same one ceal-serve serves.
	opts := service.Options{Workers: 1}
	var tap *bytes.Buffer
	if *trace != "" {
		// A run the manager executes is traced by its own observer, phase
		// spans included; the hub's stream (no phase spans) serves a spec
		// the store already answers.
		tap = new(bytes.Buffer)
		opts.Build = func(s service.JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			p, alg, err := service.BuildSpec(s)
			if err == nil {
				p.Observer = events.Multi(p.Observer, events.NewJSONLWriter(tap))
			}
			return p, alg, err
		}
	}
	if *history != "" {
		db, err := histdb.OpenFileStore(*history)
		if err != nil {
			closeTrace(false)
			return fail(err)
		}
		opts.Store = db
	}
	m := service.NewManager(opts)
	rec, fresh, err := drive(ctx, m, spec, *resume, emit, tap, stdout)
	if cerr := m.Shutdown(context.Background()); err == nil && cerr != nil {
		err = fmt.Errorf("history close: %w", cerr)
	}
	if terr := closeTrace(err == nil); err == nil {
		err = terr
	}
	switch {
	case err != nil:
		if rec != nil && *history != "" {
			fmt.Fprintf(stderr, "ceal-tune: run %s checkpointed with %d measurements; resume with -history %s -resume %s\n",
				rec.ID, len(rec.Checkpoint), *history, rec.ID)
		}
		return fail(err)
	case !fresh:
		fmt.Fprintf(stdout, "run %s in %s already answers this spec; reporting the recorded result\n", rec.ID, *history)
	case *history != "":
		fmt.Fprintf(stdout, "recorded run %s in %s\n", rec.ID, *history)
	}
	if err := report(stdout, rec, *history); err != nil {
		return fail(err)
	}
	return 0
}

// drive takes one run through the manager the way the HTTP handlers do —
// Submit or Resume, follow the event stream into emit (or, for a run the
// manager executes, emit the lines tap recorded once it ends), Wait, Get — and
// returns its terminal record; fresh is false when the store already held
// a completed run of the spec. A signal or the -timeout (ctx) cancels the
// run through the manager.
func drive(ctx context.Context, m *service.Manager, spec histdb.Spec, resumeID string,
	emit func(json.RawMessage) error, tap *bytes.Buffer, stdout io.Writer) (rec *histdb.RunRecord, fresh bool, err error) {
	if resumeID != "" {
		// The stored spec overrides the flags: a resume replays the
		// original run, it does not start a new one.
		if rec, err = m.Resume(resumeID); err != nil {
			return nil, false, fmt.Errorf("resume %s: %w", resumeID, err)
		}
		fresh = true
		fmt.Fprintf(stdout, "resuming run %s from %d checkpointed measurements\n", rec.ID, len(rec.Checkpoint))
	} else if rec, fresh, err = m.Submit(spec); err != nil {
		return nil, false, err
	}
	if n := rec.Spec.Normalize(); fresh {
		obj, _ := live.ParseObjective(n.Objective) // admission checked the name
		if n.Mode == histdb.ModeContinuous {
			fmt.Fprintf(stdout, "continuous tuning %s for %s with %s under drift profile %q (budget %d runs, pool %d, %d probes, %d workers)\n",
				n.Benchmark, obj, n.Algorithm, n.Drift, n.Budget, n.Pool, n.Probes, n.Workers)
		} else {
			fmt.Fprintf(stdout, "tuning %s for %s with %s (budget %d runs, pool %d, %d workers)\n",
				n.Benchmark, obj, n.Algorithm, n.Budget, n.Pool, n.Workers)
		}
	}

	// ctx only ever cancels the run (an error from Cancel just means it
	// finished first); the calls below wait for the terminal record
	// regardless. The stream ends when the run reaches a terminal state; a
	// sink failure ends it early and surfaces when the trace is closed.
	stop := context.AfterFunc(ctx, func() { _, _ = m.Cancel(rec.ID) })
	defer stop()
	if !fresh || tap == nil {
		_ = m.Stream(context.Background(), rec.ID, true, emit)
	}
	_ = m.Wait(context.Background(), rec.ID)
	if fresh && tap != nil {
		for _, line := range bytes.SplitAfter(tap.Bytes(), []byte("\n")) {
			if len(line) > 0 && emit(line[:len(line)-1]) != nil {
				break
			}
		}
	}
	rec, _ = m.Get(rec.ID)
	switch {
	case rec.State == histdb.StateDone:
		return rec, fresh, nil
	case ctx.Err() != nil:
		return rec, fresh, ctx.Err()
	default:
		return rec, fresh, errors.New(rec.Error)
	}
}

// report prints a completed run from its record: what warm start it had,
// then the continuous summary or the recommendation against the expert
// configuration.
func report(stdout io.Writer, rec *histdb.RunRecord, history string) error {
	n := rec.Spec.Normalize()
	ev, err := live.NewEvaluator(n.Job())
	if err != nil {
		return err
	}
	if n.WarmStart {
		if w := rec.Warm; w.Empty() {
			fmt.Fprintf(stdout, "warm start: no applicable prior runs in %s; started cold\n", history)
		} else {
			nComp := 0
			for _, cs := range w.ComponentSamples {
				nComp += len(cs)
			}
			fmt.Fprintf(stdout, "warm start: %d prior workflow samples, %d prior component samples from %s\n",
				len(w.Samples), nComp, history)
		}
	}
	elapsed := rec.FinishedAt.Sub(rec.StartedAt).Round(time.Millisecond)

	if c := rec.Continuous; c != nil {
		// Initial lives in memory only: a record read back from a FileStore
		// has none.
		fmt.Fprintln(stdout)
		if c.Initial != nil {
			fmt.Fprintf(stdout, "initial incumbent %v\n", c.Initial.Best)
		}
		fmt.Fprintf(stdout, "monitoring: %d probes to virtual time %.1f units, %d retunes, %d switchbacks\n",
			c.Probes, c.FinalClock, c.Retunes, c.Switchbacks)
		for i, ep := range c.Epochs {
			fmt.Fprintf(stdout, "  epoch %d: drift confirmed at probe %d, reconverged after %.1f units (%d measurements, value %.4g)\n",
				i+1, ep.Probe, ep.ClockEnd-ep.ClockStart, ep.Measurements, ep.BestValue)
		}
		fmt.Fprintf(stdout, "cumulative regret %.4g (metric x time units), re-exploration cost %.4g\n",
			c.CumulativeRegret, c.ReexploreCost)
		fmt.Fprintf(stdout, "final incumbent %v\n", c.Incumbent)
		fmt.Fprintf(stdout, "  measured %s at final condition: %.4g\n", ev.Obj, c.IncumbentValue)
		fmt.Fprintf(stdout, "  wall time %v\n", elapsed)
		return nil
	}

	// Measure the recommendation and the expert configuration with the
	// spec's own evaluator: noise is keyed to the configuration, so the
	// recommendation reproduces the value the run saw.
	res, expert, unit := rec.Result, ev.Bench.Expert(ev.Obj), ev.Obj.Unit()
	tuned, err := ev.MeasureWorkflow(res.Best)
	if err != nil {
		return err
	}
	expertVal, err := ev.MeasureWorkflow(expert)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nrecommended configuration %v\n", res.Best)
	fmt.Fprintf(stdout, "  measured %s: %.4g %s\n", ev.Obj, tuned, unit)
	fmt.Fprintf(stdout, "  expert config %v: %.4g %s\n", expert, expertVal, unit)
	if expertVal > tuned {
		fmt.Fprintf(stdout, "  improvement over expert: %.1f%%\n", (1-tuned/expertVal)*100)
		fmt.Fprintf(stdout, "  collection cost: %.4g %s -> recoups after %.0f tuned runs\n",
			res.CollectionCost, unit, res.CollectionCost/(expertVal-tuned))
	} else {
		fmt.Fprintf(stdout, "  no improvement over the expert configuration\n")
	}
	fmt.Fprintf(stdout, "  workflow samples measured: %d (tuner wall time %v)\n", len(res.Samples), elapsed)
	fmt.Fprintf(stdout, "  collector: %s\n", rec.Collector)
	if res.SwitchIteration >= 0 {
		fmt.Fprintf(stdout, "  CEAL switched to the high-fidelity model at iteration %d\n", res.SwitchIteration)
	}
	printImportance(stdout, ev.Bench.Space.Columns().Names(), res.Importance)
	return nil
}

// openTrace opens the -trace sink: stdout ("-") or a fresh file; an empty
// path discards. emit writes one trace line. done closes the sink once the
// run is over; after a successful run (ok) it also fails on a broken sink
// (full disk, closed pipe) — a silently truncated trace is worse than no
// trace — and announces the file.
func openTrace(path string, stdout io.Writer) (emit func(json.RawMessage) error, done func(ok bool) error, err error) {
	w := io.Discard
	var file *os.File
	switch path {
	case "":
	case "-":
		w = stdout
	default:
		if file, err = os.Create(path); err != nil {
			return nil, nil, err
		}
		w = file
	}
	var werr error
	emit = func(line json.RawMessage) error {
		_, werr = fmt.Fprintf(w, "%s\n", line)
		return werr
	}
	done = func(ok bool) error {
		var cerr error
		if file != nil {
			cerr = file.Close()
		}
		switch {
		case !ok:
		case werr != nil:
			return fmt.Errorf("trace write: %w", werr)
		case cerr != nil:
			return fmt.Errorf("trace close: %w", cerr)
		case file != nil:
			fmt.Fprintf(stdout, "run-event trace written to %s\n", path)
		}
		return nil
	}
	return emit, done, nil
}

// printImportance lists the surrogate's three most influential features:
// those with positive gain, the larger first, ties in feature order.
func printImportance(w io.Writer, names []string, imp []float64) {
	var top []int
	for i, v := range imp {
		if v > 0 {
			top = append(top, i)
		}
	}
	if len(top) == 0 || len(names) != len(imp) {
		return
	}
	sort.SliceStable(top, func(a, b int) bool { return imp[top[a]] > imp[top[b]] })
	fmt.Fprintf(w, "  most influential parameters (surrogate gain):")
	for _, i := range top[:min(3, len(top))] {
		fmt.Fprintf(w, " %s %.0f%%", names[i], imp[i]*100)
	}
	fmt.Fprintln(w)
}
